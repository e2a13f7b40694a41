(* The served-update phase of open-query's traced run: an in-process
   server that owns a finite, updatable table (the [serve --updatable
   TABLE] path), result cache on, sent Update frames — mostly reweights,
   some inserts and deletes, on U and R — alternating with queries drawn
   with a seeded skew from a small family over R/S/T/U.

   The source is finite and already exhausted, so the certificate
   search is trivial here; the work is the per-request table snapshot,
   cache hits, per-relation epoch invalidation, and lifted evaluation
   over the wide uniform U. *)

open Common

(* 400 U facts make a U miss cost about 20 ms lifted. *)
let n_u = 400
let eps = 0.01
let cache_capacity = 16
let traced_ops = 32

let u_prob = Rational.of_ints 1 3
let probs =
  Array.map
    (fun (a, b) -> Rational.of_ints a b)
    [| (1, 2); (1, 3); (2, 3); (1, 4); (3, 4); (1, 5); (2, 5) |]
let u_probs = [| Rational.of_ints 1 3; Rational.of_ints 2 3 |]
let fact = Open_query.fact

(* Query family: name, query, draw weight.  The weights 12:6:4:3 are
   Zipf's law with exponent 1 (weight 1/rank), the popularity model of
   Breslau et al., "Web caching and Zipf-like distributions" (INFOCOM
   1999).  All are safe UCQs; only [u] reads the wide U, so every U miss
   costs the same lifted evaluation.  [st] reads relations no update
   touches. *)
let family =
  [|
    ("u", "exists x. U(x)", 12);
    ("r", "exists x. R(x)", 6);
    ("rs", "exists x y. R(x) & S(x, y)", 4);
    ("st", "exists x y. S(x, y) & T(y)", 3);
  |]

let draw rng = weighted_pick rng (Array.map (fun (_, _, w) -> w) family)

let initial_table rng =
  let p () = Prng.pick rng probs in
  let us = List.init n_u (fun x -> (fact "U" [ x ], u_prob)) in
  Ti_table.create (us @ Open_query.r_facts p @ Open_query.st_facts p)

(* A seeded delta stream, three quarters on U (so that most
   invalidations hit the costly class) and the rest on R: 70% reweights,
   15% inserts of fresh facts and 15% deletes, as
   many inserts as deletes so the table keeps its size.  These shares
   are design choices, not measured traffic.  Returned together with
   the table after each delta, obtained by replaying it through
   [Delta_eval.apply_table]. *)
let delta_stream rng table n =
  let live = Hashtbl.create 2 in
  Hashtbl.replace live "U" (Array.init n_u Fun.id, n_u);
  Hashtbl.replace live "R" (Array.init Open_query.n_r Fun.id, Open_query.n_r);
  let fresh = ref 1000 in
  let pick_live rel =
    let a, len = Hashtbl.find live rel in
    let i = Prng.int rng len in
    (a, len, i)
  in
  let states = Array.make (n + 1) table in
  let deltas =
    Array.init n (fun k ->
        let rel = if Prng.int rng 4 < 3 then "U" else "R" in
        let prob () = Prng.pick rng (if rel = "U" then u_probs else probs) in
        let roll = Prng.int rng 100 in
        let _, len = Hashtbl.find live rel in
        (* Never delete a relation's last fact: reweights need one. *)
        let roll = if roll >= 85 && len <= 1 then 70 else roll in
        let d =
          if roll < 70 then
            (* A reweight always changes the marginal: a no-op would
               not bump the relation's epoch. *)
            let a, _, i = pick_live rel in
            let f = fact rel [ a.(i) ] in
            let rec differs () =
              let p = prob () in
              if Rational.equal p (Ti_table.prob states.(k) f) then differs () else p
            in
            Delta_eval.Reweight (f, differs ())
          else if roll < 85 then begin
            let a, len = Hashtbl.find live rel in
            let a = if len = Array.length a then Array.append a a else a in
            a.(len) <- !fresh;
            Hashtbl.replace live rel (a, len + 1);
            incr fresh;
            Delta_eval.Insert (fact rel [ a.(len) ], prob ())
          end
          else
            let a, len, i = pick_live rel in
            let x = a.(i) in
            a.(i) <- a.(len - 1);
            Hashtbl.replace live rel (a, len - 1);
            Delta_eval.Delete (fact rel [ x ])
        in
        states.(k + 1) <- Delta_eval.apply_table states.(k) d;
        d)
  in
  (deltas, states)

let config tbl ep =
  {
    (Server.default_config (fun () -> Fact_source.of_ti_table tbl) ep) with
    Server.default_eps = eps;
    default_samples = Served.mc_samples;
    shed_samples = Served.mc_samples;
    default_deadline_s = Some Served.deadline_s;
    cache_capacity;
    updatable = Some tbl;
  }

(* Exact references per (query, table state), memoized.  Grounding
   over the wide U in every state would cost more than the phase itself,
   so U is kept out of the BDD engine (an engine the server's lifted
   route does not use): the other queries are positive and read no U,
   so their BDD reference is taken on the table without U, which
   changes only the grounding domain; and P(exists x. U(x)) =
   1 - prod (1 - p) over the U facts is carried along the stream, one
   exact factor per U delta. *)
let reference_memo deltas states =
  let u_none = Array.make (Array.length states) Rational.one in
  List.iter
    (fun (f, p) ->
      if Fact.rel f = "U" then u_none.(0) <- Rational.mul u_none.(0) (Rational.compl p))
    (Ti_table.facts states.(0));
  Array.iteri
    (fun k d ->
      let f = Delta_eval.delta_fact d in
      u_none.(k + 1) <-
        (if Fact.rel f <> "U" then u_none.(k)
         else
           Rational.div
             (Rational.mul u_none.(k) (Rational.compl (Ti_table.prob states.(k + 1) f)))
             (Rational.compl (Ti_table.prob states.(k) f))))
    deltas;
  let memo = Hashtbl.create 256 in
  fun i c ->
    match Hashtbl.find_opt memo (i, c) with
    | Some r -> r
    | None ->
      let name, query, _ = family.(i) in
      let p =
        if name = "u" then Rational.compl u_none.(c)
        else
          let no_u =
            List.filter (fun (f, _) -> Fact.rel f <> "U") (Ti_table.facts states.(c))
          in
          Query_eval.boolean_bdd_rational (Ti_table.create no_u) (Fo_parse.parse_exn query)
      in
      Hashtbl.replace memo (i, c) p;
      p

let point p = (p, p)

(* The served-update phase of a traced run: boot the updatable server
   and alternate one update and one query on one connection, the first
   half untraced (they warm the cache), the second traced, then check
   the quiet server against [Query_eval] on the table replayed through
   [Delta_eval.apply_table].  Request ids start at [first_id]; query
   requests are traced under the root "update.query".  Returns the
   metrics of [Served.update_layers]. *)
let traced ~seed ~first_id =
  let rng = Prng.create ~seed () in
  let table = initial_table rng in
  let deltas, states = delta_stream rng table traced_ops in
  let qrng = Prng.substream rng 7 in
  let queries = Array.init traced_ops (fun _ -> draw qrng) in
  let reference = reference_memo deltas states in
  let path = Printf.sprintf ".perfbench_out/update_%d.ti" (Unix.getpid ()) in
  let oc = open_out path in
  Ti_table.to_channel oc table;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let server, ep = boot ~prepare:(fun () -> Ti_table.of_file path) ~config in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let conn = Client.connect ep in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  settle ();
  let adm = Admission.create Admission.default_config in
  let cache = Result_cache.create ~capacity:cache_capacity in
  let half = traced_ops / 2 in
  let state = ref 0 in
  let op j ~traced =
    let d = deltas.(j) in
    let send_update () =
      match Client.request conn (Protocol.Update { delta = Delta_eval.delta_to_string d }) with
      | Protocol.Update_ok _ -> ()
      | _ -> failwith "served-update: update failed"
    in
    let i = queries.(j) in
    let name, query, _ = family.(i) in
    let check = function
      | Protocol.Answer { lo; hi; _ } ->
        if not (contains ~lo ~hi (point (reference i !state))) then
          wrong "served-update %s: [%.17g, %.17g]" name lo hi
      | _ -> failwith "served-update: query failed"
    in
    if not traced then begin
      send_update ();
      state := j + 1;
      check (Client.request conn (Served.query_request ~query ~eps ~seed:j))
    end
    else begin
      Trace.request (first_id + (2 * j)) "update" (fun () ->
          Trace.span "client.request" send_update;
          let d' =
            Trace.span "delta_eval.parse" (fun () ->
                Delta_eval.delta_of_string (Delta_eval.delta_to_string d))
          in
          ignore
            (Trace.span "delta_eval.apply_table" (fun () ->
                 Delta_eval.apply_table states.(j) d')));
      state := j + 1;
      let tbl = states.(!state) in
      Trace.request (first_id + (2 * j) + 1) "update.query" (fun () ->
          Served.traced_query ~conn ~adm ~cache ~policy:"" ~make_source:(fun () ->
              Fact_source.of_ti_table tbl) ~query ~eps ~seed:j ~check)
    end
  in
  List.iter (fun j -> ignore (op j ~traced:false)) (List.init half Fun.id);
  List.iter (fun j -> ignore (op j ~traced:true)) (List.init half (fun j -> half + j));
  (* The quiet server must agree with Query_eval on the replayed table. *)
  Array.iteri
    (fun i (name, query, _) ->
      match Client.request conn (Served.query_request ~query ~eps ~seed:i) with
      | Protocol.Answer { lo; hi; _ } ->
        let p = Query_eval.boolean states.(traced_ops) (Fo_parse.parse_exn query) in
        if not (contains ~lo ~hi (p, p)) then
          wrong "served-update %s on the quiet server: [%.17g, %.17g] vs %s" name lo hi
            (Rational.to_decimal_string ~digits:17 p)
      | _ -> wrong "served-update %s on the quiet server: no answer" name)
    family;
  let self = Trace.self_times () in
  let ureqs = Trace.requests "update" and qreqs = Trace.requests "update.query" in
  let med reqs name scale =
    median (List.map (fun r -> scale *. Trace.get self r name) reqs)
  in
  let hits = Trace.sum_count qreqs "cache_hit" in
  List.filter
    (fun (name, _) -> List.mem name Served.update_layers)
    (Served.layer_metrics qreqs)
  @ [
      ("delta_eval.parse_us", med ureqs "delta_eval.parse" 1e6);
      ("delta_eval.apply_table_us", med ureqs "delta_eval.apply_table" 1e6);
      ("result_cache.hit_rate", ratio hits (hits +. Trace.sum_count qreqs "cache_miss"));
      ("result_cache.evictions", Trace.sum_count qreqs "cache_evict");
    ]
