(* Request-anatomy benchmark: one workload per run, end-to-end metrics
   with tracing off, per-layer metrics with --trace 1.

     anatomy.exe --workload open-query --seed 1 --seconds 15 --trace 0

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; spans of a traced run
   are written to .perfbench_out/ when it ends.  Run it through run.py,
   which builds it first. *)

(* End-to-end metrics: every workload reports all of them. *)
let end_to_end =
  [ ("setup_s", "s"); ("qps", "1/s"); ("p50_ms", "ms"); ("p90_ms", "ms");
    ("peak_rss_mb", "MiB") ]

(* Per-layer metrics of the traced run.  A layer a workload never
   reaches reports 0. *)
let per_layer =
  [
    ("safe_p50_ms", "ms"); ("hard_p50_ms", "ms"); ("query_p50_ms", "ms");
    ("update_p50_ms", "ms"); ("batch_ms", "ms"); ("anytime_ms", "ms");
    ("error_rate", "share");
    ("protocol.codec_us", "us"); ("transport.rtt_ms", "ms");
    ("serve.queue_ms", "ms"); ("admission.admit_us", "us");
    ("result_cache.lookup_us", "us"); ("result_cache.hit_rate", "share");
    ("result_cache.evictions", "count"); ("fo_parse.parse_us", "us");
    ("safe_plan.route_us", "us"); ("safe_plan.router_share", "share");
    ("fact_source.snapshot_ms", "ms"); ("fact_source.certify_ms", "ms");
    ("fact_source.tail_probes", "count"); ("store.sidecar_probes", "count");
    ("store.truncate_ms", "ms"); ("store.decodes", "count");
    ("lineage.ground_ms", "ms"); ("bdd.compile_ms", "ms");
    ("bdd.nodes", "count"); ("bdd.apply_hit_rate", "share");
    ("wmc.fold_ms", "ms"); ("query_eval.lifted_ms", "ms");
    ("robust_eval.ladder_main_ms", "ms"); ("robust_eval.ladder_domain_ms", "ms");
    ("robust_eval.bookkeeping_ms", "ms"); ("robust_eval.rungs_run", "count");
    ("delta_eval.parse_us", "us"); ("delta_eval.apply_table_us", "us");
    ("delta_eval.apply_us", "us"); ("delta_eval.prob_us", "us");
    ("delta_eval.nodes_recomputed", "count"); ("delta_eval.recompiled", "count");
    ("robust_eval.session_us", "us"); ("anytime.step_ms", "ms");
    ("anytime.steps", "count"); ("batch_eval.compiled", "count");
    ("batch_eval.dedup_hits", "count"); ("batch_eval.certify_ms", "ms");
    ("trace.unattributed_share", "share"); ("trace.overhead_share", "share");
  ]

let workloads =
  [
    ( "open-query",
      fun ~seed ~seconds ~trace ->
        let e2e, layers, attempted, failed = Open_query.run ~seed ~seconds ~trace in
        let updated = if trace then Served_update.traced ~seed ~first_id:1000 else [] in
        (e2e, layers @ updated, attempted, failed) );
    ("session-stream", Session_stream.run);
  ]

let json_metrics catalog values =
  List.map
    (fun (name, unit_) ->
      let v =
        match List.assoc_opt name values with
        | Some v -> v
        | None when catalog == end_to_end -> failwith ("missing metric " ^ name)
        | None -> 0.0
      in
      if not (Float.is_finite v) then failwith ("non-finite metric " ^ name);
      Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
    catalog
  |> String.concat ", "

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ( "--ocaml-version",
        Arg.Unit (fun () -> print_endline Sys.ocaml_version; exit 0),
        " print the compiler version and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "anatomy.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      Printf.eprintf "anatomy: unknown workload %S (want %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  if not (Sys.file_exists ".perfbench_out") then Sys.mkdir ".perfbench_out" 0o755;
  let traced = !trace = 1 in
  match run ~seed:!seed ~seconds:!seconds ~trace:traced with
  | exception Common.Wrong_answer msg ->
    Printf.eprintf "anatomy: WRONG ANSWER: %s\n%!" msg;
    result_line ~correct:false ~attempted:1 ~failed:1 "";
    exit 1
  | e2e, layers, attempted, failed ->
    let e2e = e2e @ [ ("peak_rss_mb", Common.peak_rss_mb ()) ] in
    if traced then
      Trace.write
        (Printf.sprintf ".perfbench_out/spans-%s-seed%d.jsonl" !workload !seed);
    let metrics =
      if traced then json_metrics per_layer layers else json_metrics end_to_end e2e
    in
    result_line ~correct:true ~attempted ~failed metrics
