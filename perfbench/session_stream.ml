(* session-stream: the incremental engines in process, on one thread,
   with no server.  A [Delta_eval.Certified] session booted from the
   pack, the prefix of the pack-plus-tail source (as in E25), absorbs a
   seeded delta stream and answers [Robust_eval.query_session] after
   each delta; each round of deltas is
   followed by one [Anytime] run to eps and one [Robust_eval.query_batch]
   over safe, hard and duplicate members, both on the pack-plus-tail
   source.  The certificate search runs once per batch or session, not
   per delta. *)

open Common

let n = 100
let eps = 0.01
(* A round is [bursts] update ops of [burst] deltas each (every delta
   answered by query_session), then one anytime run and one batch. *)
let burst = 40
let bursts = 4
let traced_rounds = 2
(* Set-ups (pack load and session compile) at each set-up point of the
   load. *)
let set_ups_per_point = 11

let r_fact k = Fact.make "R" [ Value.Int k ]
let session_query = "exists x. R(x)"
let anytime_query = "exists x y. R(x) & N(y)"

let batch_members =
  [
    "exists x. R(x)";
    "exists x y. R(x) & S(x, y)";
    "exists x y. R(x) & S(x, y) & T(y)";
    "exists x y. R(x) & S(x, y) & T(y)";
    "exists u v. R(u) & S(u, v) & T(v)";
    "exists x y. R(x) & N(y)";
  ]

(* The pack: n R facts with strictly descending small probabilities
   (P(exists x. R(x)) stays clear of 1, so interval checks have teeth),
   plus the S edges and T facts of open-query for the hard batch
   members.  S and T take the same 30 probabilities (1/8 to 4/8 in
   turn) in a seeded order, so that the pack's mass, which sets the
   anytime and batch truncations, is the same for every seed. *)
let pack_table rng =
  let rs = List.init n (fun i -> (r_fact i, Rational.of_ints ((2 * n) - i) (8 * n * n))) in
  let st_probs = Array.init 30 (fun i -> Rational.of_ints (1 + (i mod 4)) 8) in
  Prng.shuffle rng st_probs;
  let k = ref (-1) in
  Ti_table.create (rs @ Open_query.st_facts (fun () -> incr k; st_probs.(!k)))

(* The seeded delta stream: 20% deletes of a live R fact, 20% inserts
   restoring a deleted one, the rest reweights of live facts.  Every
   delta names one of the pack's n R facts, so however many rounds run,
   each delta is a weight patch on the same diagram and the live count
   stays between n/2 and n.  [live] carries the facts' state from one
   call to the next. *)
let delta_stream rng live k =
  let count b = Array.fold_left (fun c l -> if l = b then c + 1 else c) 0 live in
  let rec pick b =
    let i = Prng.int rng n in
    if live.(i) = b then i else pick b
  in
  let prob () = Rational.of_ints (1 + Prng.int rng (2 * n)) (8 * n * n) in
  Array.init k (fun _ ->
      match Prng.int rng 10 with
      | 0 | 1 when count true > n / 2 ->
        let i = pick true in
        live.(i) <- false;
        Delta_eval.Delete (r_fact i)
      | 2 | 3 when count false > 0 ->
        let i = pick false in
        live.(i) <- true;
        Delta_eval.Insert (r_fact i, prob ())
      | _ -> Delta_eval.Reweight (r_fact (pick true), prob ()))

let check_interval ~what iv (rlo, rhi) =
  check_enclosure ~what ~lo:(Interval.lo iv) ~hi:(Interval.hi iv) (rlo, rhi)

(* The incremental interval must intersect a fresh session's. *)
let check_session s phi =
  let fresh = Delta_eval.Certified.create (Delta_eval.Certified.table s) phi in
  if
    Interval.intersect (Delta_eval.Certified.prob s) (Delta_eval.Certified.prob fresh)
    = None
  then wrong "session-stream: incremental and fresh intervals are disjoint"

let run ~seed ~seconds ~trace =
  let rng = Prng.create ~seed () in
  let table = pack_table rng in
  let refs = Open_query.reference table in
  let pack = Printf.sprintf ".perfbench_out/session_%d.iow" (Unix.getpid ()) in
  Store.write_ti ~path:pack table;
  Fun.protect ~finally:(fun () -> Sys.remove pack) @@ fun () ->
  let phi = Fo_parse.parse_exn session_query in
  let any_phi = Fo_parse.parse_exn anytime_query in
  let members = List.map Fo_parse.parse_exn batch_members in
  let member_refs = List.map refs batch_members in
  let any_ref = refs anytime_query in
  (* Set-up: load the pack and compile the session.  The session holds
     the whole pack (its S and T facts are inert for the session query),
     so every R fact a delta names is in its alphabet from the start. *)
  let pack_size = Ti_table.size table in
  let boot () =
    let st = Store.load pack in
    let s =
      Delta_eval.Certified.create (Fact_source.truncate (Store.fact_source st) pack_size) phi
    in
    ignore (Delta_eval.Certified.prob s : Interval.t);
    (st, s)
  in
  let set_up () =
    let t0 = now () in
    ignore (boot ());
    now () -. t0
  in
  let st, s = boot () in
  let source () = Store.fact_source ~rest:(Open_query.tail ()) st in
  let drng = Prng.substream rng 3 in
  let live = Array.make n true in
  (* --- the three op kinds ------------------------------------------ *)
  let delta d =
    ignore (Delta_eval.Certified.apply s d : Delta_eval.apply_kind);
    ignore (Delta_eval.Certified.prob s : Interval.t);
    let a = Robust_eval.query_session ~eps s in
    if Interval.intersect a.Robust_eval.enclosure (Delta_eval.Certified.prob s) = None
    then wrong "session-stream: query_session disagrees with its session"
  in
  let anytime () =
    let a = Anytime.create ~eps (source ()) any_phi in
    match Anytime.run a with
    | (Anytime.Converged | Anytime.Exhausted), _ -> Some (Anytime.bounds a)
    | _ -> None
  in
  let batch () = Robust_eval.query_batch ~eps ~mc_samples:Served.mc_samples (source ()) members in
  let check_anytime = function
    | Some iv -> check_interval ~what:"session-stream anytime" iv any_ref; true
    | None -> false
  in
  let check_batch answers =
    List.iter2
      (fun (a : Robust_eval.answer) r ->
        check_interval ~what:"session-stream batch member" a.Robust_eval.enclosure r)
      answers member_refs
  in
  (* --- timed rounds ------------------------------------------------ *)
  let ops = ref [] in
  settle ();
  let timed cls f =
    let t0 = now () in
    let r = f () in
    (r, { cls; latency = now () -. t0; ok = true })
  in
  let set_up_times =
    load_loop ~seconds ~reps:set_ups_per_point ~set_up (fun () ->
        for _ = 1 to bursts do
          let ds = delta_stream drng live burst in
          let (), o = timed "update" (fun () -> Array.iter delta ds) in
          ops := o :: !ops
        done;
        let r, o = timed "anytime" anytime in
        let o = { o with ok = check_anytime r } in
        ops := o :: !ops;
        let r, o = timed "batch" batch in
        check_batch r;
        ops := o :: !ops;
        (* Checks run outside the timed ops, and so does collecting
           their garbage. *)
        check_session s phi;
        settle ())
  in
  let ops = !ops in
  let attempted = List.length ops in
  let failed = List.length (List.filter (fun o -> not o.ok) ops) in
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
      (* Per delta (each answered by query_session): the median burst
         over its length. *)
      ("update_p50_ms", class_p50 ops [ "update" ] /. float_of_int burst);
      ("batch_ms", class_p50 ops [ "batch" ]);
      ("anytime_ms", class_p50 ops [ "anytime" ]);
      ("error_rate", ratio (float_of_int failed) (float_of_int attempted));
    ]
  in
  (* --- traced run: the same rounds, each layer call in a span ------ *)
  let layers =
    if not trace then []
    else begin
      settle ();
      let untraced = ref [] in
      for _ = 1 to traced_rounds do
        Array.iter
          (fun d -> untraced := snd (timed "update" (fun () -> delta d)) :: !untraced)
          (delta_stream drng live (bursts * burst))
      done;
      let req = ref 0 in
      let next () = incr req; !req in
      for _ = 1 to traced_rounds do
        Array.iter
          (fun d ->
            (* The Stats diff is taken outside the request's root span:
               a snapshot costs more than a patched delta. *)
            let (), diff =
              with_stats_diff (fun () ->
                  Trace.request (next ()) "delta" (fun () ->
                      ignore (Trace.span "delta_eval.apply" (fun () -> Delta_eval.Certified.apply s d));
                      ignore (Trace.span "delta_eval.prob" (fun () -> Delta_eval.Certified.prob s));
                      ignore
                        (Trace.span "robust_eval.session" (fun () ->
                             Robust_eval.query_session ~eps s))))
            in
            Trace.count "nodes_recomputed" (Stats.find diff "delta.wmc.nodes_recomputed");
            Trace.count "recompiled" (Stats.find diff "delta.apply.recompiled"))
          (delta_stream drng live (bursts * burst));
        Trace.request (next ()) "anytime" (fun () ->
            let a = Anytime.create ~eps (source ()) any_phi in
            let rec go k =
              match Trace.span "anytime.step" (fun () -> Anytime.step a) with
              | Some _ -> go (k + 1)
              | None -> k
            in
            Trace.count "steps" (float_of_int (go 0));
            ignore (check_anytime (Some (Anytime.bounds a))));
        Trace.request (next ()) "batch" (fun () ->
            ignore
              (Trace.span "batch_eval.certify" (fun () ->
                   Approx_eval.truncation_r (source ()) ~eps));
            let answers, diff =
              with_stats_diff (fun () -> Trace.span "robust_eval.query_batch" batch)
            in
            check_batch answers;
            Trace.count "compiled" (Stats.find diff "query.bdd_fallback");
            Trace.count "dedup" (Stats.find diff "batch.dedup.hit"))
      done;
      check_session s phi;
      let self = Trace.self_times () in
      let reqs root = Trace.requests root in
      let med root name scale =
        median (List.map (fun r -> scale *. Trace.get self r name) (reqs root))
      in
      let steps =
        List.concat_map
          (fun r ->
            List.filter_map
              (fun (sp : Trace.span) ->
                if sp.Trace.req = r && sp.Trace.name = "anytime.step" then
                  Some (ms (sp.Trace.stop -. sp.Trace.start))
                else None)
              !Trace.spans)
          (reqs "anytime")
      in
      let delta_total r =
        List.fold_left (fun acc n -> acc +. Trace.get self r n) 0.0
          [ "delta_eval.apply"; "delta_eval.prob"; "robust_eval.session" ]
      in
      let traced_deltas =
        List.map (fun r -> delta_total r +. Trace.get self r "delta") (reqs "delta")
      in
      let untraced = List.map (fun o -> o.latency) !untraced in
      [
        ("delta_eval.apply_us", med "delta" "delta_eval.apply" 1e6);
        ("delta_eval.prob_us", med "delta" "delta_eval.prob" 1e6);
        ("delta_eval.nodes_recomputed", Trace.mean_count (reqs "delta") "nodes_recomputed");
        ("delta_eval.recompiled", Trace.mean_count (reqs "delta") "recompiled");
        ("robust_eval.session_us", med "delta" "robust_eval.session" 1e6);
        ("anytime.step_ms", median steps);
        ("anytime.steps", Trace.mean_count (reqs "anytime") "steps");
        ("batch_eval.compiled", Trace.mean_count (reqs "batch") "compiled");
        ("batch_eval.dedup_hits", Trace.mean_count (reqs "batch") "dedup");
        ("batch_eval.certify_ms", med "batch" "batch_eval.certify" 1e3);
        ( "trace.unattributed_share",
          median
            (List.map
               (fun r -> ratio (Trace.get self r "delta") (delta_total r +. Trace.get self r "delta"))
               (reqs "delta")) );
        ( "trace.overhead_share",
          ratio (median traced_deltas -. median untraced) (median untraced) );
      ]
    end
  in
  (e2e, class_metrics @ layers, attempted, failed)
