(* open-query: the served-open request mix on a packed TI table of
   R/S/T facts followed by a geometric N tail — the source of [serve
   --store P --policy geometric:1/4:1/2] — evaluated in process on the
   main domain, one request at a time, as a server worker evaluates it
   (parse, a fresh source, the Robust_eval ladder).  Every request pays
   the tail-certificate search; the hard class also pays lineage, BDD
   and weighted model counting.

   The traced run adds the served path: it boots that server (one
   worker domain, result cache off) and an updatable one, and traces
   requests sent to them one at a time. *)

open Common

(* Pack size sets the hard query's cost: truncation always takes the
   whole pack plus about 8 tail facts. *)
let n_r = 10
let eps = 0.01
let traced_requests = 12

(* Set-ups at each set-up point of the load: each is a pack load and a
   first answer. *)
let set_ups_per_point = 3

let probs =
  Array.map
    (fun (a, b) -> Rational.of_ints a b)
    [| (1, 2); (1, 3); (2, 3); (1, 4); (3, 4); (1, 5); (2, 5); (3, 5); (4, 5) |]

let tail_first = Rational.of_ints 1 4
let tail_ratio = Rational.of_ints 1 2
let n_fact j = Fact.make "N" [ Value.Int j ]

let tail () =
  Fact_source.geometric ~first:tail_first ~ratio:tail_ratio ~facts:n_fact ()

let fact rel args = Fact.make rel (List.map (fun v -> Value.Int v) args)
let r_facts p = List.init n_r (fun x -> (fact "R" [ x ], p ()))

(* S and T for the join queries: T over y in [100, 110) and the 20
   edges S(x, 100 + x) and S(x, 100 + (x + 1) mod 10).  The structure is
   fixed, so the hard query's diagram has the same shape for every seed;
   [p] draws the probabilities. *)
let st_facts p =
  List.concat
    (List.init n_r (fun x ->
         [ (fact "S" [ x; 100 + x ], p ()); (fact "S" [ x; 100 + ((x + 1) mod n_r) ], p ()) ]))
  @ List.init n_r (fun y -> (fact "T" [ 100 + y ], p ()))

(* The seeded pack: its 40 facts take the probabilities of [probs] in
   turn, in a seeded order, so that the pack's mass, which sets the
   truncation and the size of its exact rationals, is the same for
   every seed. *)
let pack_table rng =
  let ps = Array.init (4 * n_r) (fun i -> probs.(i mod Array.length probs)) in
  Prng.shuffle rng ps;
  let k = ref (-1) in
  let p () = incr k; ps.(!k) in
  Ti_table.create (r_facts p @ st_facts p)

(* Query classes: name, query, mix weight. *)
let classes =
  [|
    ("exists", "exists x. R(x)", 2);
    ("safe", "exists x y. R(x) & S(x, y)", 2);
    ("open", "exists x y. R(x) & N(y)", 2);
    ("hard", "exists x y. R(x) & S(x, y) & T(y)", 3);
  |]

let pick_class rng = weighted_pick rng (Array.map (fun (_, _, w) -> w) classes)

(* P(exists y. N(y)) on the geometric tail, enclosed as [lo, hi] of
   rationals through its first 200 facts and the exact geometric
   remainder (width below 2^-200). *)
let tail_exists =
  lazy
    (let k = 64 in
     let none =
       Rational.product
         (List.init k (fun i ->
              Rational.compl (Rational.mul tail_first (Rational.pow tail_ratio i))))
     in
     let rest =
       Rational.div
         (Rational.mul tail_first (Rational.pow tail_ratio k))
         (Rational.compl tail_ratio)
     in
     (Rational.compl none, Rational.compl (Rational.mul none (Rational.compl rest))))

(* Exact limit probability of [query] on [table] followed by the tail,
   as an enclosure [lo, hi].  Queries over pack relations read only the
   pack; [exists x y. R(x) & N(y)] factors into P(exists R) times
   P(exists N). *)
let reference table query =
  let exact s = Query_eval.boolean_bdd_rational table (Fo_parse.parse_exn s) in
  if query = "exists x y. R(x) & N(y)" then
    let p = exact "exists x. R(x)" and lo, hi = Lazy.force tail_exists in
    (Rational.mul p lo, Rational.mul p hi)
  else
    let p = exact query in
    (p, p)

let references table = Array.map (fun (_, query, _) -> reference table query) classes

let check refs i = function
  | Protocol.Answer { lo; hi; budget_exhausted = false; _ } ->
    let name, _, _ = classes.(i) in
    check_enclosure ~what:("served-open " ^ name) ~lo ~hi refs.(i);
    true
  | _ -> false

let config st ep =
  {
    (Server.default_config (fun () -> Store.fact_source ~rest:(tail ()) st) ep) with
    Server.policy_label = "geometric:1/4:1/2";
    (* One worker domain: on a 2-core host, two workers running the
       bignum-heavy certificate search serve fewer requests per second
       than one (see README). *)
    domains = 1;
    default_eps = eps;
    default_samples = Served.mc_samples;
    shed_samples = Served.mc_samples;
    default_deadline_s = Some Served.deadline_s;
    cache_capacity = 0;
  }

(* Exact-containment check of an in-process answer. *)
let check_answer refs i (a : Robust_eval.answer) =
  let name, _, _ = classes.(i) in
  let iv = a.Robust_eval.enclosure in
  check_enclosure ~what:("open-query " ^ name) ~lo:(Interval.lo iv) ~hi:(Interval.hi iv)
    refs.(i)

(* The served-open phase of a traced run: boot the pack-plus-tail
   server, send [traced_requests] requests from one client untraced,
   then as many traced.  Returns the phase's layer metrics. *)
let served_phase ~rng ~refs ~pack =
  let server, ep = boot ~prepare:(fun () -> Store.load pack) ~config in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  settle ();
  let trng = Prng.substream rng 99 in
  let reqs = List.init traced_requests (fun _ -> pick_class trng) in
  let conn = Client.connect ep in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let untraced =
    List.mapi
      (fun k i ->
        let _, query, _ = classes.(i) in
        let t0 = now () in
        let resp = Client.request conn (Served.query_request ~query ~eps ~seed:k) in
        let dt = now () -. t0 in
        if not (check refs i resp) then failwith "served-open: traced request failed";
        dt)
      reqs
  in
  let adm = Admission.create Admission.default_config in
  let cache = Result_cache.create ~capacity:0 in
  let st = Store.load pack in
  List.iteri
    (fun k i ->
      let _, query, _ = classes.(i) in
      Trace.request k "request" (fun () ->
          Served.traced_query ~conn ~adm ~cache ~policy:"geometric:1/4:1/2"
            ~make_source:(fun () -> Store.fact_source ~rest:(tail ()) st)
            ~query ~eps ~seed:k
            ~check:(fun r ->
              if not (check refs i r) then failwith "served-open: traced request failed")))
    reqs;
  let ids = Trace.requests "request" in
  Served.layer_metrics ids
  @ [
      ( "trace.overhead_share",
        ratio (median (Served.served_latencies ids) -. median untraced) (median untraced) );
    ]

let run ~seed ~seconds ~trace =
  let rng = Prng.create ~seed () in
  let table = pack_table rng in
  let refs = references table in
  let pack = Printf.sprintf ".perfbench_out/open_%d.iow" (Unix.getpid ()) in
  Store.write_ti ~path:pack table;
  Fun.protect ~finally:(fun () -> Sys.remove pack) @@ fun () ->
  (* Set-up: load the pack and answer a first query, the open-world
     class, on a source built on it — the time to a first answer.
     Loading alone takes some 10 us, too little to time steadily (it
     read about 9 or 14 us depending on the process). *)
  let first = Option.get (Array.find_index (fun (name, _, _) -> name = "open") classes) in
  let set_up () =
    let t0 = now () in
    let st = Store.load pack in
    let _, query, _ = classes.(first) in
    let a =
      Robust_eval.query ~eps ~mc_samples:Served.mc_samples
        (Store.fact_source ~rest:(tail ()) st)
        (Fo_parse.parse_exn query)
    in
    let dt = now () -. t0 in
    check_answer refs first a;
    dt
  in
  let st = Store.load pack in
  (* --- closed-loop load, one request at a time --------------------- *)
  settle ();
  let ops = ref [] and k = ref 0 in
  let set_up_times =
    load_loop ~seconds ~reps:set_ups_per_point ~set_up (fun () ->
        let i = pick_class rng in
        let name, query, _ = classes.(i) in
        let t0 = now () in
        (* A server worker's evaluation: parse, a fresh source, the
           ladder. *)
        let a =
          Robust_eval.query ~eps ~mc_samples:Served.mc_samples ~seed:!k
            (Store.fact_source ~rest:(tail ()) st)
            (Fo_parse.parse_exn query)
        in
        let latency = now () -. t0 in
        check_answer refs i a;
        ops := { cls = name; latency; ok = true } :: !ops;
        incr k)
  in
  let ops = !ops in
  let attempted = List.length ops in
  let e2e =
    [
      ("setup_s", median set_up_times);
      ("qps", qps ops);
      ("p50_ms", percentile (latencies ops) 0.5);
      ("p90_ms", percentile (latencies ops) 0.9);
    ]
  in
  let class_metrics =
    [
      ("safe_p50_ms", class_p50 ops [ "exists"; "safe"; "open" ]);
      ("hard_p50_ms", class_p50 ops [ "hard" ]);
      ("query_p50_ms", median (latencies ops));
    ]
  in
  (* --- traced run: served requests from one client, sequential; the
     served-update phase follows (Served_update.traced) ----------- *)
  let layers =
    if not trace then []
    else
      List.filter
        (fun (name, _) -> not (List.mem name Served.update_layers))
        (served_phase ~rng ~refs ~pack)
  in
  (e2e, class_metrics @ layers, attempted, 0)
