(* Spans for the traced run: each call the benchmark makes into a layer
   is wrapped in a span (name, start, end, parent, request id).  Spans
   stay in memory and are written out as JSON lines when the run ends;
   a layer's self time is its span's duration minus the part its child
   spans cover.  The traced run is single-threaded (one client, one
   request at a time), so a plain stack gives the parent. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (* -1 for a root span *)
  start : float;
  stop : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_req = ref (-1)

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let start = Common.now () in
  let finish () =
    let stop = Common.now () in
    stack := List.tl !stack;
    spans := { id; name; req = !current_req; parent; start; stop } :: !spans
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* Open a root span for request [req]; every span inside belongs to it. *)
let request req name f =
  current_req := req;
  span name f

(* Self time per (request, span name), in seconds.  Children of one
   span never overlap (the run is sequential), so covered time is the
   sum of their durations. *)
let self_times () =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (s.stop -. s.start
          +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    !spans;
  let self = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
      let key = (s.req, s.name) in
      Hashtbl.replace self key
        (s.stop -. s.start -. c
        +. Option.value ~default:0.0 (Hashtbl.find_opt self key)))
    !spans;
  self

let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.name s.req s.parent s.start s.stop)
    (List.rev !spans)

(* Per-request counts (Stats diffs and provenance facts), keyed like
   self times. *)
let counts : (int * string, float) Hashtbl.t = Hashtbl.create 256

let count name v =
  let key = (!current_req, name) in
  Hashtbl.replace counts key
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts key))

let get tbl req name = Option.value ~default:0.0 (Hashtbl.find_opt tbl (req, name))

(* Requests that recorded anything under root-span name [root]. *)
let requests root =
  List.sort_uniq compare
    (List.filter_map
       (fun s -> if s.name = root && s.parent = -1 then Some s.req else None)
       !spans)

(* Mean of a per-request count over [reqs] (0 on no requests). *)
let mean_count reqs name =
  match reqs with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun acc r -> acc +. get counts r name) 0.0 reqs
    /. float_of_int (List.length reqs)

let sum_count reqs name =
  List.fold_left (fun acc r -> acc +. get counts r name) 0.0 reqs
