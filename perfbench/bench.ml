(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads (the reasons are recorded in BENCHMARK.json):
   - vm-short: a seeded stream of short warm-tier jobs, P′ and P twins
     interleaved, a simulated heap attached to every run;
   - vm-steady: large PageRank jobs, P′ and P twins interleaved, no heap;
   - serve-open: [facade_cli serve] in a child process, two tenants
     sending jobs open-loop.

   With --trace 0 the last line of standard output holds the end-to-end
   metrics; with --trace 1 it holds the per-layer metrics of a run that
   records the benchmark's own spans around its calls into each layer.
   Everything before that line is a human-readable report. *)

(* Latency limit of [slo_frac_100ms], the same for every workload. *)
let slo_ms = 100.

(* End-to-end metrics, each held to a bound in BENCHMARK.json. The p99
   tails are per-layer [tail.*] metrics instead, with no bound: on a shared
   two-core host serve-open's p99 latency moved by 2x between runs of one
   seed, more than any bound allows. [slo_frac_100ms] holds the tail. *)
let end_to_end_units =
  [
    ("setup_s", "s");
    ("jobs_per_s", "1/s");
    ("run_ms_p50", "ms");
    ("facade_object_ratio", "ratio");
    ("cpu_ms_per_job", "ms");
    ("latency_p50_ms", "ms");
    ("slo_frac_100ms", "frac");
    ("peak_rss_mb", "MiB");
  ]

(* Every per-layer metric, in print order. A workload that does not
   exercise a layer reports it as 0 with no samples. *)
let per_layer_units =
  [
    ("tail.run_ms_p99", "ms");
    ("tail.latency_p99_ms", "ms");
    ("facade_compiler.compile_ms", "ms");
    ("opt.optimize_ms", "ms");
    ("link.link_ms", "ms");
    ("tier.make_tier_ms", "ms");
    ("tier.cold_run_ms", "ms");
    ("interp.steps_per_job", "count");
    ("interp.ns_per_step", "ns");
    ("interp.fixed_us_per_run", "us");
    ("interp.ic_hit_ratio", "ratio");
    ("tier.entries_per_job", "count");
    ("tier.deopts_per_job", "count");
    ("tier.osr_entries", "count");
    ("tier.recompiles_warm", "count");
    ("tier.compiles_warm", "count");
    ("pagestore.lock_pool_create_us", "us");
    ("pagestore.store_create_us", "us");
    ("pagestore.facade_pool_create_us", "us");
    ("pagestore.records_per_job", "count");
    ("pagestore.pages_per_job", "count");
    ("pagestore.recycle_ratio", "ratio");
    ("pagestore.peak_native_kb", "KiB");
    ("heapsim.charge_ms_per_job", "ms");
    ("heapsim.minor_gcs_per_job", "count");
    ("heapsim.major_gcs_per_job", "count");
    ("heapsim.objects_traced_per_job", "count");
    ("heapsim.heap_objects_per_job", "count");
    ("heapsim.sim_gc_ms_per_job", "ms");
    ("host_gc.minor_words_per_job", "words");
    ("host_gc.major_collections_per_job", "count");
    ("proto.submit_rtt_us", "us");
    ("proto.poll_rtt_us", "us");
    ("proto.polls_per_job", "count");
    ("scheduler.queue_wait_ms_p50", "ms");
    ("scheduler.queue_wait_ms_p99", "ms");
    ("scheduler.rejects_per_job", "count");
    ("engine.run_ms", "ms");
    ("engine.runner_busy_frac", "frac");
    ("parallel.job_run_ms", "ms");
    ("serve.unaccounted_ms", "ms");
    ("loadgen.lag_ms", "ms");
    ("loadgen.cpu_frac", "frac");
    ("trace.overhead_frac", "frac");
    ("trace.self_sum_gap_frac", "frac");
    ("trace.jobs_checked", "count");
  ]

(* {2 Workloads} *)

let pagerank ~n ~iters =
  let s = Samples.pagerank_sized ~n ~iters in
  { s with Samples.name = Printf.sprintf "pagerank-%dx%d" n iters }

let vm_short rng =
  (* The warm-tier samples without the two -large scalability ones, plus
     three small PageRanks of equal work (n * iters = 320), each 32 vertices
     for 10 supersteps or 40 for 8. Sizes with unequal work moved P′/P
     from seed to seed by more than the mix's other choices. *)
  let small =
    List.filter
      (fun s -> not (String.ends_with ~suffix:"-large" s.Samples.name))
      Samples.all
  in
  let prs =
    List.init 3 (fun _ ->
        if Random.State.bool rng then pagerank ~n:32 ~iters:10 else pagerank ~n:40 ~iters:8)
  in
  let progs = small @ prs in
  {
    Vm_stream.progs;
    jobs = Vm_stream.balanced rng ~programs:(List.length progs) ~copies:4;
    (* Small enough that P's jobs collect; no program's live data comes
       near it. *)
    heap_bytes = Some (64 lsl 10);
    setup_reps = 9;
  }

let vm_steady rng =
  (* One large vertex count per seed, within 7% of 512, and five
     superstep counts spanning 2.3x, scaled so each seed does about the
     same work: the spread of steps per job fixes the line of run time
     against steps. *)
  let n = 480 + (8 * Random.State.int rng 9) in
  let progs =
    List.map (fun it -> pagerank ~n ~iters:(max 1 (it * 512 / n))) [ 30; 40; 50; 60; 70 ]
  in
  {
    Vm_stream.progs;
    jobs = Vm_stream.balanced rng ~programs:(List.length progs) ~copies:1;
    heap_bytes = None;
    setup_reps = 9;
  }

(* {2 Output} *)

let complete ~names (have : Probe.metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Probe.metric) -> m.Probe.name = name) have with
      | Some m ->
          if m.Probe.unit_ <> unit_ then failwith ("unit mismatch for " ^ name);
          m
      | None -> Probe.metric name unit_ ~samples:0 0.)
    names

let metric_json (m : Probe.metric) =
  ( m.Probe.name,
    Obs.Json.Obj
      [
        ("value", Obs.Json.Num m.Probe.value);
        ("unit", Obs.Json.Str m.Probe.unit_);
        ("samples", Obs.Json.Num (float_of_int m.Probe.samples));
      ] )

(* Serialize through Obs.Json and insist that the text parses back to
   the same value. *)
let render v =
  let s = Obs.Json.to_string v in
  match Obs.Json.parse s with
  | Ok v' when v' = v -> s
  | Ok _ -> failwith "result JSON did not re-parse to the same value"
  | Error e -> failwith ("result JSON did not re-parse: " ^ e)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let clk_tck = ref 100 and out_dir = ref ".perfbench_run" in
  let daemon = ref "_build/default/bin/facade_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME vm-short | vm-steady | serve-open");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--clk-tck", Arg.Set_int clk_tck, "N clock ticks per second in /proc/<pid>/stat");
      ("--out-dir", Arg.Set_string out_dir, "DIR where traces, logs and results go");
      ("--daemon", Arg.Set_string daemon, "EXE the facade_cli executable serve-open starts");
      ( "--hostref",
        Arg.Set_string Probe.reference_exe,
        "EXE the host speed reference process (perfbench/hostref.exe)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let rng = Random.State.make [| !seed |] in
  let tracer = if !trace = 1 then Some (Obs.Tracer.create ~ring_capacity:16384 ()) else None in
  let base = Printf.sprintf "%s/%s-seed%d-trace%d" !out_dir !workload !seed !trace in
  let r =
    match !workload with
    | "vm-short" -> Vm_stream.report (vm_short rng) ~tracer ~seconds:!seconds ~slo_ms
    | "vm-steady" -> Vm_stream.report (vm_steady rng) ~tracer ~seconds:!seconds ~slo_ms
    | "serve-open" ->
        Serve_open.report ~seed:!seed ~tracer ~seconds:!seconds ~slo_ms ~clk_tck:!clk_tck
          ~out_dir:!out_dir ~exe:!daemon
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  let problems = ref r.Probe.problems in
  (match tracer with
  | None -> ()
  | Some t -> (
      let path = base ^ ".chrome.json" in
      Obs.Export.write_chrome t path;
      match Obs.Export.validate_chrome (Probe.read_file path) with
      | Ok ck -> Printf.printf "chrome trace: %s (%d events)\n" path ck.Obs.Export.ck_events
      | Error e -> problems := ("chrome trace invalid: " ^ e) :: !problems));
  let printed =
    if !trace = 1 then complete ~names:per_layer_units r.Probe.per_layer
    else complete ~names:end_to_end_units r.Probe.end_to_end
  in
  Printf.printf "workload %s seed %d: %d jobs attempted, %d failed, nproc %d\n" !workload !seed
    r.Probe.attempted r.Probe.failed (Domain.recommended_domain_count ());
  List.iter print_endline r.Probe.notes;
  List.iter
    (fun (m : Probe.metric) ->
      Printf.printf "  %-34s %14.6g %-6s (n=%d)\n" m.Probe.name m.Probe.value m.Probe.unit_
        m.Probe.samples)
    printed;
  List.iter
    (fun (m : Probe.metric) ->
      if not (Float.is_finite m.Probe.value) then
        problems := (m.Probe.name ^ " is not finite") :: !problems)
    printed;
  let printed =
    List.map
      (fun (m : Probe.metric) ->
        if Float.is_finite m.Probe.value then m else { m with Probe.value = 0. })
      printed
  in
  List.iter (fun p -> Printf.printf "PROBLEM: %s\n" p) !problems;
  (* The full record, for later reading. *)
  let full =
    Obs.Json.Obj
      [
        ("workload", Obs.Json.Str !workload);
        ("seed", Obs.Json.Num (float_of_int !seed));
        ("nproc", Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("problems", Obs.Json.List (List.map (fun p -> Obs.Json.Str p) !problems));
        ("notes", Obs.Json.List (List.map (fun p -> Obs.Json.Str p) r.Probe.notes));
        ("metrics", Obs.Json.Obj (List.map metric_json printed));
      ]
  in
  Out_channel.with_open_bin (base ^ ".json") (fun oc -> output_string oc (render full));
  let line =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool (!problems = []));
        ("attempted", Obs.Json.Num (float_of_int r.Probe.attempted));
        ("failed", Obs.Json.Num (float_of_int r.Probe.failed));
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun (m : Probe.metric) ->
                 ( m.Probe.name,
                   Obs.Json.Obj
                     [ ("value", Obs.Json.Num m.Probe.value); ("unit", Obs.Json.Str m.Probe.unit_) ] ))
               printed) );
      ]
  in
  print_endline (render line)
