(* The traced anatomy of one served query, shared by the served-open
   and served-update phases of open-query's traced run.  The request is sent once to the live server (one client,
   sequentially, so the Stats diff around it attributes exactly), then
   each layer it passed through is called again from here on the same
   input, inside its own span:

     codec → Health round trip → parse → cache lookup → (on a miss)
     admit → route → source snapshot → certificate search → truncate →
     lifted plan | lineage → BDD → WMC → the whole ladder on the main
     domain and in a spawned domain.

   [serve.queue_ms] is the served latency minus the in-worker ladder
   time (the [robust.query.seconds] diff) minus codec and transport. *)

open Common
module W = Wmc.Make (Prob.Rational_carrier)

let deadline_s = 60.0
let mc_samples = 2_000

let query_request ~query ~eps ~seed =
  Protocol.Query
    { query; eps = Some eps; deadline_ms = None; mc_samples = Some mc_samples; seed }

(* Engines that ran (tries > 0) on the ladder. *)
let rungs_run (a : Robust_eval.answer) =
  List.length
    (List.filter
       (fun at -> at.Robust_eval.tries > 0)
       a.Robust_eval.provenance.Robust_eval.attempts)

let record_counters d =
  List.iter
    (fun (key, stat_name) -> Trace.count key (Stats.find d stat_name))
    [
      ("ladder_worker_s", "robust.query.seconds");
      ("tail_probes", "source.tail_probe");
      ("sidecar_probes", "store.sidecar.probe");
      ("decodes", "store.fact.decode");
      ("bdd_nodes", "bdd.nodes_allocated");
      ("apply_hit", "bdd.apply.hit");
      ("apply_miss", "bdd.apply.miss");
      ("safe_plan", "query.safe_plan");
      ("bdd_fallback", "query.bdd_fallback");
      ("cache_hit", "serve.cache.hit");
      ("cache_miss", "serve.cache.miss");
      ("cache_evict", "serve.cache.evict");
    ]

(* Send [req] and replay its layers.  [check] validates the served
   response (raising [Wrong_answer]); [make_source] builds the request's
   fact source exactly as the server does. *)
let traced_query ~conn ~adm ~cache ~policy ~make_source ~query ~eps ~seed
    ~check =
  let req = query_request ~query ~eps ~seed in
  let resp, d =
    with_stats_diff (fun () ->
        Trace.span "client.request" (fun () -> Client.request conn req))
  in
  check resp;
  record_counters d;
  ignore (Trace.span "transport.rtt" (fun () -> Client.request conn Protocol.Health));
  Trace.span "protocol.codec" (fun () ->
      ignore (Protocol.decode_request (Protocol.encode_request req));
      ignore (Protocol.decode_response (Protocol.encode_response resp)));
  let phi = Trace.span "fo_parse.parse" (fun () -> Fo_parse.parse_exn query) in
  ignore
    (Trace.span "result_cache.lookup" (fun () ->
         Result_cache.find cache ~query ~policy ~epoch:"" ~eps));
  (* A cache hit ends the server's path here. *)
  let cached = match resp with Protocol.Answer { cached; _ } -> cached | _ -> false in
  if not cached then begin
    ignore
      (Trace.span "admission.admit" (fun () ->
           Admission.admit adm ~queue_len:0 ~deadline_s:(Some deadline_s)));
    let safe = Trace.span "safe_plan.route" (fun () -> Safe_plan.is_safe phi) in
    let src = Trace.span "fact_source.snapshot" make_source in
    let n =
      Trace.span "fact_source.certify" (fun () ->
          match Approx_eval.truncation_r src ~eps with
          | Ok (n, _) -> n
          | Error e -> failwith (Errors.to_string e))
    in
    let table = Trace.span "store.truncate" (fun () -> Fact_source.truncate src n) in
    if safe then
      ignore (Trace.span "query_eval.lifted" (fun () -> Query_eval.boolean_safe table phi))
    else begin
      let a = Lineage.alphabet (Ti_table.support table) in
      let lin =
        Trace.span "lineage.ground" (fun () ->
            Lineage.of_sentence ~extra:(Batch_eval.padding table [| phi |]) a phi)
      in
      (* The exact engine's first-occurrence variable order. *)
      let rank = Hashtbl.create 64 in
      List.iteri (fun r v -> Hashtbl.add rank v r) (Bool_expr.occurrence_order lin);
      let order v =
        match Hashtbl.find_opt rank v with Some r -> r | None -> v + Hashtbl.length rank
      in
      let b =
        Trace.span "bdd.compile" (fun () -> Bdd.of_expr (Bdd.manager ~order ()) lin)
      in
      let weight v = Ti_table.prob table (Lineage.fact_of_var a v) in
      ignore (Trace.span "wmc.fold" (fun () -> W.probability ~weight b))
    end;
    let ladder () =
      Robust_eval.query ~eps ~mc_samples ~seed (make_source ()) phi
    in
    let a = Trace.span "robust_eval.ladder_main" ladder in
    Trace.count "rungs_run" (float_of_int (rungs_run a));
    ignore
      (Trace.span "robust_eval.ladder_domain" (fun () ->
           Domain.join (Domain.spawn ladder)))
  end

(* Layers of the ladder that the replay times one by one; the rest of
   the main-domain ladder time is bookkeeping. *)
let ladder_layers =
  [
    "fact_source.certify"; "store.truncate"; "query_eval.lifted";
    "lineage.ground"; "bdd.compile"; "wmc.fold";
  ]

(* Layers on the served request's path, for the unattributed share. *)
let path_layers =
  [
    "protocol.codec"; "transport.rtt"; "fo_parse.parse"; "result_cache.lookup";
    "admission.admit"; "safe_plan.route"; "fact_source.snapshot";
  ]
  @ ladder_layers

(* Per-layer metrics over the traced query requests [reqs]. *)
let layer_metrics reqs =
  let self = Trace.self_times () in
  let g r name = Trace.get self r name in
  let med name scale =
    median
      (List.filter_map
         (fun r ->
           if Hashtbl.mem self (r, name) then Some (scale *. g r name) else None)
         reqs)
  in
  let sum r names = List.fold_left (fun acc n -> acc +. g r n) 0.0 names in
  let cnt = Trace.sum_count reqs in
  [
    ("protocol.codec_us", med "protocol.codec" 1e6);
    ("transport.rtt_ms", med "transport.rtt" 1e3);
    ( "serve.queue_ms",
      median
        (List.map (fun r ->
             ms
               (g r "client.request"
               -. Trace.get Trace.counts r "ladder_worker_s"
               -. g r "protocol.codec" -. g r "transport.rtt"))
           reqs) );
    ("admission.admit_us", med "admission.admit" 1e6);
    ("result_cache.lookup_us", med "result_cache.lookup" 1e6);
    ("fo_parse.parse_us", med "fo_parse.parse" 1e6);
    ("safe_plan.route_us", med "safe_plan.route" 1e6);
    ( "safe_plan.router_share",
      ratio (cnt "safe_plan") (cnt "safe_plan" +. cnt "bdd_fallback") );
    ("fact_source.snapshot_ms", med "fact_source.snapshot" 1e3);
    ("fact_source.certify_ms", med "fact_source.certify" 1e3);
    ("fact_source.tail_probes", Trace.mean_count reqs "tail_probes");
    ("store.sidecar_probes", Trace.mean_count reqs "sidecar_probes");
    ("store.truncate_ms", med "store.truncate" 1e3);
    ("store.decodes", Trace.mean_count reqs "decodes");
    ("lineage.ground_ms", med "lineage.ground" 1e3);
    ("bdd.compile_ms", med "bdd.compile" 1e3);
    ("bdd.nodes", Trace.mean_count reqs "bdd_nodes");
    ( "bdd.apply_hit_rate",
      ratio (cnt "apply_hit") (cnt "apply_hit" +. cnt "apply_miss") );
    ("wmc.fold_ms", med "wmc.fold" 1e3);
    ("query_eval.lifted_ms", med "query_eval.lifted" 1e3);
    ("robust_eval.ladder_main_ms", med "robust_eval.ladder_main" 1e3);
    ("robust_eval.ladder_domain_ms", med "robust_eval.ladder_domain" 1e3);
    ( "robust_eval.bookkeeping_ms",
      median
        (List.map
           (fun r -> ms (g r "robust_eval.ladder_main" -. sum r ladder_layers))
           (List.filter (fun r -> Hashtbl.mem self (r, "robust_eval.ladder_main")) reqs)) );
    ("robust_eval.rungs_run", Trace.mean_count reqs "rungs_run");
    ( "trace.unattributed_share",
      median
        (List.map (fun r ->
             1.0 -. ratio (sum r path_layers) (g r "client.request"))
           reqs) );
  ]

(* Served latency of every traced request. *)
let served_latencies reqs =
  let self = Trace.self_times () in
  List.map (fun r -> Trace.get self r "client.request") reqs

(* Layer metrics a traced open-query run takes from its served-update
   phase, where the request path does this work; the rest come from its
   served-open phase. *)
let update_layers =
  [
    "protocol.codec_us"; "transport.rtt_ms"; "admission.admit_us";
    "result_cache.lookup_us"; "result_cache.hit_rate"; "result_cache.evictions";
    "fact_source.snapshot_ms"; "query_eval.lifted_ms"; "delta_eval.parse_us";
    "delta_eval.apply_table_us";
  ]
