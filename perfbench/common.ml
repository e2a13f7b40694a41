(* Shared plumbing of the request-anatomy benchmark: clocks, order
   statistics, exact enclosure checks, process memory, Stats diffs and
   in-process servers on temporary Unix sockets. *)

(* Monotonic, nanosecond resolution: spans of a patched delta last a few
   microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let ms s = 1e3 *. s

(* A wrong answer fails the whole run; it is never counted as a slow
   or failed op. *)
exception Wrong_answer of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong_answer s)) fmt

(* Linearly interpolated percentile (numpy's default), 0 on an empty
   sample. *)
let percentile xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort compare a;
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))
  end

let median xs = percentile xs 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  go ()

(* Whether the float enclosure [lo, hi] contains the rational interval
   [rlo, rhi] (a point when the reference is exact), compared exactly. *)
let contains ~lo ~hi (rlo, rhi) =
  let r = Rational.of_float_exn in
  Rational.( <= ) (r lo) rlo && Rational.( <= ) rhi (r hi)

let check_enclosure ~what ~lo ~hi (rlo, rhi) =
  if not (contains ~lo ~hi (rlo, rhi)) then
    wrong "%s: enclosure [%.17g, %.17g] misses the reference [%s, %s]" what
      lo hi
      (Rational.to_decimal_string ~digits:17 rlo)
      (Rational.to_decimal_string ~digits:17 rhi)

(* Index drawn with probability proportional to its integer weight. *)
let weighted_pick rng weights =
  let k = ref (Prng.int rng (Array.fold_left ( + ) 0 weights)) and i = ref 0 in
  while !k >= weights.(!i) do
    k := !k - weights.(!i);
    incr i
  done;
  !i

(* Collect before a measured phase: the server's worker domains
   share the major heap with the benchmark, so garbage left by data
   generation or reference answers would otherwise be collected on the
   clock of the requests that follow. *)
let settle () = Gc.full_major ()

(* [f ()] with the Stats counters it moved. *)
let with_stats_diff f =
  let before = Stats.snapshot () in
  let r = f () in
  (r, Stats.diff (Stats.snapshot ()) before)

(* ------------------------------------------------------------------ *)
(* In-process servers (traced runs) *)
(* ------------------------------------------------------------------ *)

let sock_counter = ref 0

(* Sockets live in the working directory (the checkout), under a short
   relative name: the benchmark writes nowhere else. *)
let fresh_socket () =
  incr sock_counter;
  Printf.sprintf ".perfbench_out/s%d_%d.sock" (Unix.getpid ()) !sock_counter

let stop_server t =
  Server.request_drain t;
  Server.wait t

(* Boot a server on [config (prepare ())] and wait for its first
   Health reply; returns the server and its endpoint. *)
let boot ~prepare ~config =
  let ep = `Unix (fresh_socket ()) in
  let t = Server.start (config (prepare ()) ep) in
  let conn = Client.connect ep in
  (match Client.request conn Protocol.Health with
  | Protocol.Health_ok _ -> ()
  | _ -> failwith "boot: unexpected reply to Health");
  Client.close conn;
  (t, ep)

(* ------------------------------------------------------------------ *)
(* Op records *)
(* ------------------------------------------------------------------ *)

type op = { cls : string; latency : float; ok : bool }

let latencies ?(cls = fun _ -> true) ops =
  List.filter_map
    (fun o -> if o.ok && cls o.cls then Some (ms o.latency) else None)
    ops

let class_p50 ops names = median (latencies ~cls:(fun c -> List.mem c names) ops)

(* Completed ops per second of op time: the checks between ops are not
   timed. *)
let qps ops =
  ratio
    (float_of_int (List.length (List.filter (fun o -> o.ok) ops)))
    (List.fold_left (fun acc o -> acc +. o.latency) 0.0 ops)

(* The build host slows down in phases of seconds to minutes (see
   README, finding 7), so set-ups are spread over the load: a few run
   at each of [set_up_points] evenly spaced points, and their median
   samples every phase the run meets, as the load's figures do. *)
let set_up_points = 9

(* Run [op] until [seconds] have passed, first running [set_up] (which
   returns its own duration) [reps] times at each set-up point.
   Returns the set-up times. *)
let load_loop ~seconds ~reps ~set_up op =
  let t_start = now () in
  let last = ref (-1) and times = ref [] in
  while now () -. t_start < seconds do
    let k = int_of_float (float_of_int set_up_points *. (now () -. t_start) /. seconds) in
    if k > !last then begin
      last := k;
      for _ = 1 to reps do times := set_up () :: !times done
    end;
    op ()
  done;
  !times
