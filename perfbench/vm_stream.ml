(* The in-process VM workloads. A seeded list of warm-tier jobs runs in
   rounds; every job runs as the generated program P′ and as its object
   program twin P, the two interleaved and their order alternating from
   job to job, and P′'s result and output are checked against P's. *)

module P = Facade_compiler.Pipeline
module I = Facade_vm.Interp
module ES = Facade_vm.Exec_stats

type prog = {
  sample : Samples.sample;
  pl : P.t;  (* optimized P′; its quickened link is cached on it *)
  ftier : Facade_vm.Vm_state.tier;
  rp : Facade_vm.Resolved.program;  (* optimized, quickened P *)
  otier : Facade_vm.Vm_state.tier;
  want_result : string;  (* P's cold-run result *)
  want_output : string list;
}

type config = {
  progs : Samples.sample list;  (* the distinct programs, set up together *)
  jobs : int array;  (* one round: indices into [progs] *)
  heap_bytes : int option;  (* attach a fresh simulated heap to every run *)
  setup_reps : int;
}

(* [copies] of every program index in a seeded order. Every program runs
   equally often, so a seed moves the order and any generated sizes but
   not the mix. *)
let balanced rng ~programs ~copies =
  let a = Array.init (programs * copies) (fun i -> i mod programs) in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let result_string (o : I.outcome) =
  match o.I.result with Some v -> Facade_vm.Value.to_string v | None -> "-"

let agrees ~result ~output (o : I.outcome) =
  result_string o = result && ES.output_lines o.I.stats = output

let feedback (r : Opt.Driver.report) =
  { Facade_vm.Compile_tier.fb_mono = r.Opt.Driver.tier_mono; fb_leaves = r.Opt.Driver.tier_leaves }

(* {2 Set-up} *)

(* Compile, optimize, link and tier one program for both modes, then run
   each mode once cold. The flag is false when the cold P′ run disagrees
   with P, or P with the sample's expected result. *)
let setup_prog sp cost (s : Samples.sample) =
  let layer name f =
    let v, dt = Probe.timed (fun () -> Probe.span sp name f) in
    Hashtbl.replace cost name (dt +. Option.value ~default:0. (Hashtbl.find_opt cost name));
    v
  in
  let pl0 =
    layer "facade_compiler.compile" (fun () -> P.compile ~spec:s.Samples.spec s.Samples.program)
  in
  let (pl, prep), (op, orep) =
    layer "opt.optimize" (fun () ->
        (Opt.Driver.optimize_pipeline pl0, Opt.Driver.optimize_program s.Samples.program))
  in
  let is_data = Facade_compiler.Classify.is_data_class pl0.P.classification in
  let frp, rp =
    layer "link.link" (fun () ->
        ( Facade_vm.Link.facade_program ~quicken:true pl,
          Facade_vm.Link.object_program ~is_data ~quicken:true op ))
  in
  let ftier, otier =
    layer "tier.make_tier" (fun () ->
        (I.make_tier ~feedback:(feedback prep) frp, I.make_tier ~feedback:(feedback orep) rp))
  in
  let fo, oo =
    layer "tier.cold_run" (fun () ->
        (I.run_facade ~quicken:true ~tier:ftier pl, I.run_object_linked ~tier:otier rp))
  in
  let prog =
    {
      sample = s;
      pl;
      ftier;
      rp;
      otier;
      want_result = result_string oo;
      want_output = ES.output_lines oo.I.stats;
    }
  in
  let expected_ok =
    match s.Samples.expected with
    | None -> true
    | Some c -> Facade_vm.Value.to_string (Facade_vm.Value.of_const c) = prog.want_result
  in
  (prog, expected_ok && agrees ~result:prog.want_result ~output:prog.want_output fo)

type setup_rep = {
  secs : float;
  host_ref : float;  (* host reference time just before it *)
  cost : (string, float) Hashtbl.t;  (* seconds by layer *)
}

(* Set the workload up [reps] times from scratch; the programs of the
   last set-up are the ones measured. *)
let setup sp host cfg =
  let rec go k acc =
    let cost = Hashtbl.create 8 in
    let host_ref = Probe.host_speed host in
    let progs, secs =
      Probe.timed (fun () -> List.map (setup_prog sp cost) cfg.progs)
    in
    let acc = { secs; host_ref; cost } :: acc in
    if k <= 1 then (progs, List.rev acc) else go (k - 1) acc
  in
  go cfg.setup_reps []

(* {2 Page-store constructors}

   Each constructor a P′ run calls before its first instruction, timed
   alone: the shared lock pool, the store, and the facade pool sized by
   the program's bounds. Microseconds per call. *)
let constructor_us ~reps f =
  Gc.full_major ();
  let _, dt =
    Probe.timed (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  dt *. 1e6 /. float_of_int reps


(* {2 The measured stream} *)

type sample = {
  prog_ix : int;
  f_wall : float;  (* seconds in run_facade *)
  latency : float;  (* P′ call to checked result; infinity when wrong *)
  job_wall : float;  (* the whole job: both twins and the checks *)
  traced : bool;
  ref_s : float;
}

type round = {
  r_traced : bool;
  r_facade : float;  (* Σ P′ seconds *)
  r_facade_per_ref : float;  (* Σ P′ seconds / host reference time *)
  r_cpu_per_ref : float;  (* Σ P′ process CPU seconds / host reference time *)
  r_object : float;  (* Σ P seconds *)
}

type measured = {
  progs : prog array;
  setups : setup_rep list;
  host : Probe.host;
  samples : sample list;
  rounds : round list;
  counts : (string, float) Hashtbl.t;  (* sums over measured runs *)
  steps : int array;  (* P′ steps of one run, by program *)
  job_e2e : (int, float) Hashtbl.t;  (* traced job id -> its wall seconds *)
  failures : string list;
  peak_rss_mb : float;  (* after set-up and warm-up *)
}

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
let count tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

let count_heap counts prefix = function
  | None -> ()
  | Some h ->
      let g = Heapsim.Heap.stats h in
      let c k v = bump counts (prefix ^ k) (float_of_int v) in
      c "minor_gcs" g.Heapsim.Gc_stats.minor_gcs;
      c "major_gcs" g.Heapsim.Gc_stats.major_gcs;
      c "objects_traced" g.Heapsim.Gc_stats.objects_traced;
      c "objects_allocated" g.Heapsim.Gc_stats.objects_allocated;
      bump counts (prefix ^ "gc_seconds") g.Heapsim.Gc_stats.gc_seconds

(* The counters one P′ run returns: Exec_stats, Store.stats, Gc_stats of
   its simulated heap, and the host runtime's GC deltas around it. *)
let count_run counts (o : I.outcome) heap (minor_words, major) =
  let st = o.I.stats in
  let c k v = bump counts k (float_of_int v) in
  c "interp.steps" st.ES.steps;
  c "interp.ic_hits" st.ES.ic_hits;
  c "interp.ic_misses" st.ES.ic_misses;
  c "tier.entries" st.ES.tier2_entries;
  c "tier.deopts" st.ES.tier2_deopts;
  c "tier.osr_entries" st.ES.osr_entries;
  c "tier.recompiles" st.ES.tier2_recompiles;
  c "tier.compiles" st.ES.tier2_compiles;
  (match o.I.store_stats with
  | Some s ->
      c "pagestore.records" s.Pagestore.Store.records_allocated;
      c "pagestore.pages_created" s.Pagestore.Store.pages_created;
      c "pagestore.pages_recycled" s.Pagestore.Store.pages_recycled;
      c "pagestore.peak_native_bytes" s.Pagestore.Store.peak_native_bytes
  | None -> ());
  count_heap counts "heapsim." heap;
  bump counts "host_gc.minor_words" minor_words;
  c "host_gc.major_collections" major

let run cfg ~tracer ~seconds =
  let sp = { Probe.tracer; lane = None } in
  let host = Probe.host () in
  let built, setups = setup sp host cfg in
  let failures = ref [] in
  let progs =
    Array.of_list
      (List.map
         (fun (p, ok) ->
           if not ok then failures := ("cold run of " ^ p.sample.Samples.name) :: !failures;
           p)
         built)
  in
  let new_heap () =
    Option.map
      (fun b -> Heapsim.Heap.create (Heapsim.Hconfig.make ~heap_bytes:b ()))
      cfg.heap_bytes
  in
  let steps = Array.make (Array.length progs) 0 in
  let counts = Hashtbl.create 32 and job_e2e = Hashtbl.create 1024 in
  let samples = ref [] and rounds = ref [] and next_job = ref 0 in
  let run_job ~measure ~traced k ix =
    let prog = progs.(ix) in
    let jid = !next_job in
    incr next_job;
    let sp = if traced then sp else Probe.no_spans in
    let hf = new_heap () and ho = new_heap () in
    let facade () =
      let ref_s = Probe.host_speed host in
      let g0 = Probe.host_gc () in
      let c0 = Sys.time () in
      let t0 = Probe.now () in
      let o =
        Probe.span sp ~job:jid "interp.run_facade" (fun () ->
            I.run_facade ~quicken:true ~tier:prog.ftier ?heap:hf prog.pl)
      in
      let t1 = Probe.now () in
      let c1 = Sys.time () in
      let g1 = Probe.host_gc () in
      let ok =
        Probe.span sp ~job:jid "bench.check" (fun () ->
            agrees ~result:prog.want_result ~output:prog.want_output o)
      in
      (o, t1 -. t0, c1 -. c0, (fst g1 -. fst g0, snd g1 - snd g0), ok, Probe.now () -. t0, ref_s)
    in
    let objekt () =
      Probe.timed (fun () ->
          Probe.span sp ~job:jid "interp.run_object_linked" (fun () ->
              I.run_object_linked ~tier:prog.otier ?heap:ho prog.rp))
    in
    let job () =
      let t0 = Probe.now () in
      (* Alternate which twin runs first, so neither always inherits the
         other's cache and allocator state; [k] counts jobs and rounds. *)
      let f, (oo, ow) =
        if k land 1 = 0 then
          let f = facade () in
          (f, objekt ())
        else
          let o = objekt () in
          (facade (), o)
      in
      let fo, _, _, _, _, _, _ = f in
      let twin_ok =
        Probe.span sp ~job:jid "bench.check" (fun () ->
            agrees ~result:(result_string oo) ~output:(ES.output_lines oo.I.stats) fo)
      in
      (f, ow, twin_ok, Probe.now () -. t0)
    in
    let (fo, fw, fcpu, gcd, ref_ok, latency, ref_s), ow, twin_ok, job_wall =
      Probe.span sp ~job:jid "job" job
    in
    if measure then begin
      let ok = ref_ok && twin_ok in
      if not ok then failures := prog.sample.Samples.name :: !failures;
      steps.(ix) <- fo.I.stats.ES.steps;
      samples :=
        {
          prog_ix = ix;
          f_wall = fw;
          latency = (if ok then latency else infinity);
          job_wall;
          traced;
          ref_s;
        }
        :: !samples;
      count_run counts fo hf gcd;
      count_heap counts "heapsim.p_" ho;
      if traced then begin
        Hashtbl.replace job_e2e jid job_wall;
        (* The heap simulator's share of a run: the same P′ job again,
           with no heap attached. *)
        if cfg.heap_bytes <> None then begin
          let _, bare =
            Probe.timed (fun () ->
                Probe.span sp ~job:jid "heapsim.paired_bare_run" (fun () ->
                    I.run_facade ~quicken:true ~tier:prog.ftier prog.pl))
          in
          bump counts "heapsim.charge_seconds" (fw -. bare)
        end
      end
    end;
    (fw, ow, ref_s, fcpu)
  in
  (* Unmeasured rounds let late tier-2 compilations finish. *)
  for _ = 1 to 3 do
    Array.iteri (fun k ix -> ignore (run_job ~measure:false ~traced:false k ix)) cfg.jobs
  done;
  (* Peak RSS before the benchmark's own per-job records pile up. *)
  let peak_rss_mb = Probe.peak_rss_mb (Unix.getpid ()) in
  let deadline = Probe.now () +. seconds and r = ref 0 in
  while Probe.now () < deadline do
    (* The traced run alternates rounds with and without spans; the gap
       between the two is the tracing overhead. *)
    let traced = tracer <> None && !r land 1 = 1 in
    let fsum = ref 0. and fscaled = ref 0. and cscaled = ref 0. and osum = ref 0. in
    Array.iteri
      (fun k ix ->
        let fw, ow, ref_s, fcpu = run_job ~measure:true ~traced (k + !r) ix in
        fsum := !fsum +. fw;
        fscaled := !fscaled +. (fw /. ref_s);
        cscaled := !cscaled +. (fcpu /. ref_s);
        osum := !osum +. ow)
      cfg.jobs;
    rounds :=
      {
        r_traced = traced;
        r_facade = !fsum;
        r_facade_per_ref = !fscaled;
        r_cpu_per_ref = !cscaled;
        r_object = !osum;
      }
      :: !rounds;
    incr r
  done;
  {
    progs;
    setups;
    host;
    samples = List.rev !samples;
    rounds = List.rev !rounds;
    counts;
    steps;
    job_e2e;
    failures = List.rev !failures;
    peak_rss_mb;
  }

(* {2 Span consistency}

   For each retained "job" span, the self times of it and every span
   inside it must add up to the job's wall time as the benchmark's own
   clock measured it, within 5% + 50 us; a job whose span was preempted
   between the two clock reads can miss that, so up to 1% may. Returns
   jobs checked, jobs outside the tolerance, and the summed gap as a share
   of the summed wall time. *)
let self_sum_check tracer job_e2e =
  let checked = ref 0 and bad = ref 0 and gap = ref 0. and wall = ref 0. in
  (* Stack entries: begin event, child time inside it, self time summed
     over its subtree. *)
  let stack = ref [] in
  List.iter
    (fun (e : Obs.Tracer.event) ->
      match e.Obs.Tracer.ph with
      | Obs.Tracer.Begin -> stack := (e, ref 0., ref 0.) :: !stack
      | Obs.Tracer.End -> (
          match !stack with
          | [] -> ()
          | (b, child, sub_self) :: rest -> (
              stack := rest;
              let dur = e.Obs.Tracer.ts -. b.Obs.Tracer.ts in
              let self_sum = !sub_self +. (dur -. !child) in
              (match rest with
              | (_, pchild, psub) :: _ ->
                  pchild := !pchild +. dur;
                  psub := !psub +. self_sum
              | [] -> ());
              match (b.Obs.Tracer.name, List.assoc_opt "job" b.Obs.Tracer.args) with
              | "job", Some (Obs.Tracer.Aint jid) -> (
                  match Hashtbl.find_opt job_e2e jid with
                  | Some w ->
                      incr checked;
                      let g = Float.abs (self_sum -. w) in
                      if g > (0.05 *. w) +. 50e-6 then incr bad;
                      gap := !gap +. g;
                      wall := !wall +. w
                  | None -> ())
              | _ -> ()))
      | Obs.Tracer.Instant -> ())
    (Obs.Tracer.events tracer);
  (!checked, !bad, if !wall > 0. then !gap /. !wall else 0.)

(* {2 Metrics} *)

let ms s = s *. 1e3

(* Fixed cost per run and cost per step: the least-squares line through
   each program's median P′ run time against its step count. *)
let fixed_and_per_step points =
  let distinct = List.sort_uniq compare (List.map fst points) in
  if List.length distinct < 2 then (0., 0.) else Stats.fit points

let report cfg ~tracer ~seconds ~slo_ms =
  let m = run cfg ~tracer ~seconds in
  let metric = Probe.metric in
  (* End-to-end figures come from the rounds without spans only. *)
  let untraced = List.filter (fun s -> not s.traced) m.samples in
  let n = List.length untraced in
  let rounds = List.filter (fun r -> not r.r_traced) m.rounds in
  let nr = List.length rounds in
  (* Host-scaled milliseconds; see [Probe.host_speed]. *)
  let nominal = Probe.nominal_ref in
  let scaled s x = ms (x *. nominal /. s.ref_s) in
  let walls = List.map (fun s -> scaled s s.f_wall) untraced in
  let lat = List.map (fun s -> scaled s s.latency) untraced in
  let per_round = float_of_int (Array.length cfg.jobs) in
  let nsetup = List.length m.setups in
  let end_to_end =
    [
      metric "setup_s" "s" ~samples:nsetup
        (Stats.median (List.map (fun r -> r.secs *. nominal /. r.host_ref) m.setups));
      metric "jobs_per_s" "1/s" ~samples:nr
        (per_round /. Stats.median (List.map (fun r -> r.r_facade_per_ref *. nominal) rounds));
      metric "run_ms_p50" "ms" ~samples:n (Stats.percentile walls 0.5);
      metric "facade_object_ratio" "ratio" ~samples:nr
        (Stats.median (List.map (fun r -> r.r_object /. r.r_facade) rounds));
      metric "cpu_ms_per_job" "ms" ~samples:nr
        (ms (Stats.median (List.map (fun r -> r.r_cpu_per_ref *. nominal) rounds)) /. per_round);
      metric "latency_p50_ms" "ms" ~samples:n (Stats.percentile lat 0.5);
      metric "slo_frac_100ms" "frac" ~samples:n
        (float_of_int (List.length (List.filter (fun l -> l <= slo_ms) lat))
        /. float_of_int n);
      metric "peak_rss_mb" "MiB" ~samples:1 m.peak_rss_mb;
    ]
  in
  let tails =
    [
      metric "tail.run_ms_p99" "ms" ~samples:n
        (Stats.windowed_percentile ~window:Probe.tail_window walls 0.99);
      metric "tail.latency_p99_ms" "ms" ~samples:n
        (Stats.windowed_percentile ~window:Probe.tail_window lat 0.99);
    ]
  in
  let all_n = List.length m.samples in
  (* The cold run of each program is checked like a job. *)
  let attempted = all_n + Array.length m.progs in
  let per_job k = count m.counts k /. float_of_int all_n in
  let raw = List.map (fun s -> ms s.f_wall) untraced in
  let notes =
    [
      Printf.sprintf
        "host reference loop: nominal %.4f ms, median %.4f ms (n=%d); unscaled run_ms p50 %.5f \
         p99 %.5f, jobs_per_s %.2f; peak RSS with the benchmark's records %.1f MiB"
        (ms nominal) (ms (Stats.median m.host.Probe.refs)) (List.length m.host.Probe.refs)
        (Stats.percentile raw 0.5) (Stats.percentile raw 0.99)
        (per_round /. Stats.median (List.map (fun r -> r.r_facade) rounds))
        (Probe.peak_rss_mb (Unix.getpid ()));
      Probe.describe_tails tails;
      Printf.sprintf "failed_frac = %.6f (n=%d)"
        (float_of_int (List.length m.failures) /. float_of_int attempted)
        attempted;
      Printf.sprintf "heap_objects_per_job = P' %.1f, P %.1f (n=%d)"
        (per_job "heapsim.objects_allocated") (per_job "heapsim.p_objects_allocated") all_n;
      Printf.sprintf "sim_gc_ms_per_job = P' %.6f, P %.6f (n=%d)"
        (ms (per_job "heapsim.gc_seconds")) (ms (per_job "heapsim.p_gc_seconds")) all_n;
    ]
  in
  let recompiles = count m.counts "tier.recompiles" in
  let problems =
    List.map (fun f -> "wrong output: " ^ f) m.failures
    @ if recompiles > 0. then [ Printf.sprintf "%.0f warm tier-2 recompiles" recompiles ] else []
  in
  let per_layer, problems =
    match tracer with
    | None -> ([], problems)
    | Some tr ->
        let setup_ms layer =
          metric (layer ^ "_ms") "ms" ~samples:nsetup
            (Stats.median (List.map (fun r -> ms (count r.cost layer)) m.setups))
        in
        let fixed, per_step =
          fixed_and_per_step
            (List.filter_map
               (fun ix ->
                 match List.filter (fun s -> s.prog_ix = ix) untraced with
                 | [] -> None
                 | ss ->
                     Some
                       ( float_of_int m.steps.(ix),
                         Stats.median (List.map (fun s -> s.f_wall *. nominal /. s.ref_s) ss) ))
               (List.init (Array.length m.progs) Fun.id))
        in
        let weights = Array.make (Array.length m.progs) 0. in
        Array.iter (fun ix -> weights.(ix) <- weights.(ix) +. (1. /. per_round)) cfg.jobs;
        let facade_pool_us =
          Stats.sum
            (List.mapi
               (fun ix w ->
                 if w = 0. then 0.
                 else
                   let bounds = Facade_compiler.Bounds.as_array m.progs.(ix).pl.P.bounds in
                   w *. constructor_us ~reps:200 (fun () -> Pagestore.Facade_pool.create ~bounds))
               (Array.to_list weights))
        in
        let hits = count m.counts "interp.ic_hits" and misses = count m.counts "interp.ic_misses" in
        let created = count m.counts "pagestore.pages_created"
        and recycled = count m.counts "pagestore.pages_recycled" in
        let traced_walls f = List.filter_map (fun s -> if s.traced = f then Some s.job_wall else None) m.samples in
        let checked, bad, gap = self_sum_check tr m.job_e2e in
        let c name unit_ v = metric name unit_ ~samples:all_n v in
        let layers =
          tails
          @ List.map setup_ms
              [ "facade_compiler.compile"; "opt.optimize"; "link.link"; "tier.make_tier"; "tier.cold_run" ]
          @ [
              c "interp.steps_per_job" "count" (per_job "interp.steps");
              c "interp.ns_per_step" "ns" (per_step *. 1e9);
              c "interp.fixed_us_per_run" "us" (fixed *. 1e6);
              c "interp.ic_hit_ratio" "ratio" (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
              c "tier.entries_per_job" "count" (per_job "tier.entries");
              c "tier.deopts_per_job" "count" (per_job "tier.deopts");
              c "tier.osr_entries" "count" (per_job "tier.osr_entries");
              c "tier.recompiles_warm" "count" recompiles;
              c "tier.compiles_warm" "count" (count m.counts "tier.compiles");
              metric "pagestore.lock_pool_create_us" "us" ~samples:200
                (constructor_us ~reps:200 (fun () -> Pagestore.Lock_pool.create ()));
              metric "pagestore.store_create_us" "us" ~samples:200
                (constructor_us ~reps:200 (fun () -> Pagestore.Store.create ()));
              metric "pagestore.facade_pool_create_us" "us" ~samples:200 facade_pool_us;
              c "pagestore.records_per_job" "count" (per_job "pagestore.records");
              c "pagestore.pages_per_job" "count" (per_job "pagestore.pages_created");
              c "pagestore.recycle_ratio" "ratio"
                (if created +. recycled > 0. then recycled /. (created +. recycled) else 0.);
              c "pagestore.peak_native_kb" "KiB" (per_job "pagestore.peak_native_bytes" /. 1024.);
              metric "heapsim.charge_ms_per_job" "ms" ~samples:(Hashtbl.length m.job_e2e)
                (if Hashtbl.length m.job_e2e = 0 then 0.
                 else ms (count m.counts "heapsim.charge_seconds") /. float_of_int (Hashtbl.length m.job_e2e));
              c "heapsim.minor_gcs_per_job" "count" (per_job "heapsim.minor_gcs");
              c "heapsim.major_gcs_per_job" "count" (per_job "heapsim.major_gcs");
              c "heapsim.objects_traced_per_job" "count" (per_job "heapsim.objects_traced");
              c "heapsim.heap_objects_per_job" "count" (per_job "heapsim.objects_allocated");
              c "heapsim.sim_gc_ms_per_job" "ms" (ms (per_job "heapsim.gc_seconds"));
              c "host_gc.minor_words_per_job" "words" (per_job "host_gc.minor_words");
              c "host_gc.major_collections_per_job" "count" (per_job "host_gc.major_collections");
              metric "trace.overhead_frac" "frac" ~samples:checked
                (Stats.median (traced_walls true) /. Stats.median (traced_walls false) -. 1.);
              metric "trace.self_sum_gap_frac" "frac" ~samples:checked gap;
              metric "trace.jobs_checked" "count" ~samples:checked (float_of_int checked);
            ]
        in
        let problems =
          problems
          @ (if checked = 0 then [ "no traced job spans retained" ] else [])
          @
          if bad * 100 > checked then
            [ Printf.sprintf "%d of %d jobs: span self times off their wall time" bad checked ]
          else []
        in
        (layers, problems)
  in
  {
    Probe.end_to_end;
    per_layer;
    notes;
    attempted;
    failed = List.length m.failures;
    problems;
  }
