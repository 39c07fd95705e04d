(* serve-open: [facade_cli serve] in a child process, driven open-loop.

   Two tenants send jobs at a fixed rate regardless of completions:
   independent users, so the queue may grow. Each tenant's time is cut
   into equal slots and one job falls due at a seeded random point of
   each slot, so every seed sends the same number of jobs, without the
   bursts of a Poisson process that made the latency tail vary from seed
   to seed. Each job's latency runs from its due time, so a stalled
   sender or daemon shows as latency on every job behind it. One process
   drives the load with at most [nproc] sender threads, one connection
   each. *)

module C = Service.Client
module Pr = Service.Proto

let rate = 200.  (* jobs per second over both tenants: below the knee *)
let tenants = [| "alpha"; "beta" |]
let runners = 2
let pool_workers = 2
let setup_reps = 5
let ready_timeout = 30.
let drain_timeout = 30.

(* {2 Daemon lifecycle} *)

type daemon = { pid : int; socket : string }

let live : daemon list ref = ref []

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* Whatever way the benchmark exits, no daemon outlives it. *)
let () = at_exit (fun () -> List.iter kill !live)

let fail d msg =
  kill d;
  failwith msg

let start ~exe ~out_dir k =
  let socket = Printf.sprintf "%s/d%d-%d.sock" out_dir (Unix.getpid ()) k in
  let log = Unix.openfile (socket ^ ".log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let args =
    [|
      exe; "serve"; "--socket"; socket; "--pool-workers"; string_of_int pool_workers;
      "--runners"; string_of_int runners;
    |]
  in
  let pid = Unix.create_process exe args null log log in
  Unix.close log;
  Unix.close null;
  let d = { pid; socket } in
  live := d :: !live;
  let deadline = Probe.now () +. ready_timeout in
  let rec connect () =
    match C.connect socket with
    | c -> c
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> fail d ("daemon exited before it was ready; see " ^ socket ^ ".log"));
        if Probe.now () > deadline then fail d "daemon not ready in time";
        Thread.delay 0.002;
        connect ()
  in
  (d, connect ())

(* Read the daemon's CPU time and peak RSS, then ask it to stop; kill it
   if it has not exited within the drain timeout. *)
let stop ~clk_tck d ctl =
  let cpu = Probe.cpu_seconds ~clk_tck d.pid and rss = Probe.peak_rss_mb d.pid in
  (match C.shutdown ctl with
  | Ok () -> ()
  | Error m -> fail d ("shutdown refused: " ^ m));
  C.close ctl;
  let deadline = Probe.now () +. drain_timeout in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] d.pid with
    | 0, _ ->
        if Probe.now () > deadline then fail d "daemon did not exit after Shutdown";
        Thread.delay 0.005;
        wait ()
    | _ -> live := List.filter (fun x -> x.pid <> d.pid) !live
  in
  wait ();
  (cpu, rss)

let submission ~tenant ~prog ~workers =
  {
    Pr.sb_tenant = tenant;
    sb_prog = Pr.Sample prog;
    sb_entry = "";
    sb_workers = workers;
    sb_pages = 0;
    sb_heap_bytes = 0;
  }

let run_one d ctl ~tenant (prog, workers) =
  match C.submit ctl (submission ~tenant ~prog ~workers) with
  | Ok id -> (
      match C.wait_outcome ctl id with
      | Ok oc -> oc
      | Error m -> fail d (Printf.sprintf "warm-up job %s failed: %s" prog m))
  | Error (`Rejected rj) -> fail d ("warm-up job rejected: " ^ Pr.reject_message rj)
  | Error (`Error m) -> fail d ("warm-up submit: " ^ m)

(* Start a daemon and run each kind of job once, so every program is
   compiled and tiered: the daemon's set-up, in host-scaled seconds. *)
let setup_daemon ~exe ~out_dir kinds k =
  let host_ref = Probe.reference_seconds () in
  let (d, ctl), secs =
    Probe.timed (fun () ->
        let d, ctl = start ~exe ~out_dir k in
        List.iter (fun kind -> ignore (run_one d ctl ~tenant:tenants.(0) kind)) kinds;
        (d, ctl))
  in
  (d, ctl, secs *. Probe.nominal_ref /. host_ref)

(* {2 The open loop} *)

type job = {
  jid : int;
  due : float;  (* absolute time the job is due *)
  prog : string;
  workers : int;
  tenant : string;
  want : string;
}

type done_job = {
  job : job;
  lag : float;  (* submit call time - due time *)
  outcome : [ `Ok of Pr.outcome * float | `Wrong | `Failed | `Rejected of string ];
      (* latency in seconds for [`Ok] *)
  traced : bool;
}

type sender = {
  mutable submit_rtt : float list;
  mutable poll_rtt : float list;
  mutable polls : int;
  mutable finished : done_job list;
}

(* Drive one connection: send every job of [jobs] (sorted by due time)
   when it falls due and poll the outstanding ones, until all are done. *)
let sender ~tracer ~lane ~socket ~deadline jobs =
  let st = { submit_rtt = []; poll_rtt = []; polls = 0; finished = [] } in
  let conn = C.connect socket in
  let outstanding = Hashtbl.create 64 in
  let pending = ref jobs in
  (* Every other job of each tenant is traced. *)
  let sp j =
    if (j.jid / Array.length tenants) land 1 = 1 then { Probe.tracer; lane = Some lane }
    else Probe.no_spans
  in
  let finish j lag traced outcome = st.finished <- { job = j; lag; outcome; traced } :: st.finished in
  while !pending <> [] || Hashtbl.length outstanding > 0 do
    let now = Probe.now () in
    if now > deadline then failwith "serve-open: jobs still outstanding at the drain deadline";
    let rec send () =
      match !pending with
      | j :: rest when j.due <= Probe.now () ->
          pending := rest;
          let sp = sp j in
          let t0 = Probe.now () in
          let r =
            Probe.span sp ~job:j.jid "proto.submit" (fun () ->
                C.submit conn (submission ~tenant:j.tenant ~prog:j.prog ~workers:j.workers))
          in
          let t1 = Probe.now () in
          st.submit_rtt <- (t1 -. t0) :: st.submit_rtt;
          (match r with
          | Ok id -> Hashtbl.replace outstanding id (j, t0 -. j.due, sp.Probe.tracer <> None)
          | Error (`Rejected rj) ->
              finish j (t0 -. j.due) false (`Rejected rj.Pr.rj_code)
          | Error (`Error m) -> failwith ("serve-open: submit: " ^ m));
          send ()
      | _ -> ()
    in
    send ();
    let completed = ref 0 in
    Hashtbl.filter_map_inplace
      (fun id (j, lag, traced) ->
        let sp = if traced then { Probe.tracer; lane = Some lane } else Probe.no_spans in
        let t0 = Probe.now () in
        let r = Probe.span sp ~job:j.jid "proto.poll" (fun () -> C.poll conn id) in
        let t1 = Probe.now () in
        st.poll_rtt <- (t1 -. t0) :: st.poll_rtt;
        st.polls <- st.polls + 1;
        match r with
        | `Pending -> Some (j, lag, traced)
        | `Outcome oc ->
            incr completed;
            finish j lag traced
              (if oc.Pr.oc_result = j.want then `Ok (oc, t1 -. j.due) else `Wrong);
            None
        | `Failed _ ->
            incr completed;
            finish j lag traced `Failed;
            None
        | `Error m -> failwith ("serve-open: poll: " ^ m))
      outstanding;
    if !completed = 0 then begin
      let next = match !pending with j :: _ -> j.due -. Probe.now () | [] -> 0.0005 in
      Thread.delay (Float.max 0. (Float.min 0.0005 next))
    end
  done;
  C.close conn;
  st

(* {2 Host speed during the open loop}

   The daemon's run and CPU times are scaled by host speed as the VM
   workloads' are ([Probe.host_speed]): a thread of the load generator
   takes the reference time every [Probe.host_interval] seconds, and each
   job's run time is scaled by the reading nearest its completion. *)

(* Readings (time, reference seconds), oldest first, until [stop]. *)
let sample_host stop =
  let rec go acc =
    let acc = (Probe.now (), Probe.reference_seconds ()) :: acc in
    if Atomic.get stop then Array.of_list (List.rev acc)
    else begin
      Thread.delay Probe.host_interval;
      go acc
    end
  in
  go []

(* The reading taken nearest [t]. *)
let nearest readings t =
  let lo = ref 0 and hi = ref (Array.length readings - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if fst readings.(mid) <= t then lo := mid else hi := mid
  done;
  let a = readings.(!lo) and b = readings.(!hi) in
  snd (if Float.abs (fst a -. t) <= Float.abs (fst b -. t) then a else b)

(* {2 The workload} *)

(* Every bundled sample but the two -large ones; pagerank-par runs on two
   workers of the daemon's shared pool, the rest sequentially. *)
let kinds () =
  List.filter_map
    (fun s ->
      let name = s.Samples.name in
      if String.ends_with ~suffix:"-large" name then None
      else Some (s, if name = "pagerank-par" then 2 else 0))
    Samples.all

let report ~seed ~tracer ~seconds ~slo_ms ~clk_tck ~out_dir ~exe : Probe.report =
  let rng = Random.State.make [| seed; 7 |] in
  let kinds = kinds () in
  let nk = List.length kinds in
  (* In-process reference: every program set up, run cold and checked,
     then P′ and P twins of this mix timed for three seconds. *)
  let inproc =
    Vm_stream.run
      {
        Vm_stream.progs = List.map fst kinds;
        jobs = Array.init nk Fun.id;
        heap_bytes = None;
        setup_reps = 1;
      }
      ~tracer ~seconds:3.
  in
  let want = Hashtbl.create nk in
  Array.iter
    (fun p -> Hashtbl.replace want p.Vm_stream.sample.Samples.name p.Vm_stream.want_result)
    inproc.Vm_stream.progs;
  let wire = List.map (fun (s, w) -> (s.Samples.name, w)) kinds in
  let setups = List.init setup_reps (setup_daemon ~exe ~out_dir wire) in
  let d, ctl =
    match List.rev setups with
    | (d, ctl, _) :: earlier ->
        List.iter (fun (d, ctl, _) -> ignore (stop ~clk_tck d ctl)) earlier;
        (d, ctl)
    | [] -> assert false
  in
  (* Unmeasured: enough runs of every kind for late tier-2 compiles. *)
  for _ = 1 to 10 do
    List.iter (fun kind -> ignore (run_one d ctl ~tenant:tenants.(1) kind)) wire
  done;
  (* The schedule: per tenant, a balanced seeded order of the kinds, one
     job due at a seeded point of every slot. *)
  let n = int_of_float (rate *. seconds) in
  let t_start = Probe.now () +. 0.05 in
  let per_tenant = n / Array.length tenants in
  let kinds_a = Array.of_list wire in
  let jobs =
    List.concat
      (List.mapi
         (fun ti tenant ->
           let slot = seconds /. float_of_int per_tenant in
           let dues =
             Array.init per_tenant (fun i ->
                 slot *. (float_of_int i +. Random.State.float rng 1.))
           in
           let order = Vm_stream.balanced rng ~programs:nk ~copies:((per_tenant / nk) + 1) in
           List.init per_tenant (fun i ->
               let prog, workers = kinds_a.(order.(i)) in
               {
                 jid = (i * Array.length tenants) + ti;
                 due = t_start +. dues.(i);
                 prog;
                 workers;
                 tenant;
                 want = Hashtbl.find want prog;
               }))
         (Array.to_list tenants))
  in
  let senders = max 1 (min (Array.length tenants) (Domain.recommended_domain_count ())) in
  let deadline = t_start +. seconds +. drain_timeout in
  let stop_sampling = Atomic.make false and readings = ref [||] in
  let sampler = Thread.create (fun () -> readings := sample_host stop_sampling) () in
  let cpu0 = Probe.cpu_seconds ~clk_tck d.pid and my_cpu0 = Sys.time () in
  let results = Array.make senders None in
  let threads =
    List.init senders (fun i ->
        let mine =
          List.filter (fun j -> j.jid mod Array.length tenants mod senders = i) jobs
          |> List.sort (fun a b -> Float.compare a.due b.due)
        in
        Thread.create
          (fun () ->
            results.(i) <-
              Some
                (try Ok (sender ~tracer ~lane:(i + 1) ~socket:d.socket ~deadline mine)
                 with e -> Error (Printexc.to_string e)))
          ())
  in
  List.iter Thread.join threads;
  let t_end = Probe.now () in
  let my_cpu = Sys.time () -. my_cpu0 in
  let cpu1 = Probe.cpu_seconds ~clk_tck d.pid in
  Atomic.set stop_sampling true;
  Thread.join sampler;
  let sts =
    Array.to_list results
    |> List.map (function
         | Some (Ok st) -> st
         | Some (Error m) -> fail d ("serve-open sender: " ^ m)
         | None -> fail d "serve-open sender did not finish")
  in
  let _, rss = stop ~clk_tck d ctl in
  let daemon_cpu = cpu1 -. cpu0 in
  let fin =
    List.concat_map (fun st -> st.finished) sts
    |> List.sort (fun a b -> Float.compare a.job.due b.job.due)
  in
  let ok = List.filter_map (fun f -> match f.outcome with `Ok (oc, l) -> Some (f, oc, l) | _ -> None) fin in
  let nok = List.length ok in
  let attempted = List.length fin in
  let failed = attempted - nok in
  let wall = t_end -. t_start in
  let ms s = s *. 1e3 in
  let ns_ms ns = float_of_int ns /. 1e6 in
  let metric = Probe.metric in
  let untraced = List.filter (fun (f, _, _) -> not f.traced) ok in
  (* Run and CPU times are host-scaled; latencies are not: wake-ups,
     syscalls and lock hand-offs are most of them, and scaling made them
     no steadier from run to run. *)
  let refs = Array.to_list (Array.map snd !readings) in
  let scale t = Probe.nominal_ref /. nearest !readings t in
  let lat_of l = List.map (fun (_, _, l) -> ms l) l in
  (* A failed, refused or wrong job misses the latency limit. *)
  let lat_all =
    List.map (fun f -> match f.outcome with `Ok (_, l) -> ms l | _ -> infinity) fin
  in
  let run_ms = List.map (fun (_, oc, _) -> ns_ms oc.Pr.oc_run_ns) ok in
  let run_ms_scaled =
    List.map (fun (f, oc, l) -> ns_ms oc.Pr.oc_run_ns *. scale (f.job.due +. l)) ok
  in
  let cpu_ms_per_job = ms daemon_cpu /. float_of_int nok in
  let rounds = List.filter (fun r -> not r.Vm_stream.r_traced) inproc.Vm_stream.rounds in
  let lags = List.map (fun f -> ms f.lag) fin in
  let loadgen_cpu_frac = my_cpu /. wall in
  let end_to_end =
    [
      metric "setup_s" "s" ~samples:setup_reps (Stats.median (List.map (fun (_, _, s) -> s) setups));
      metric "jobs_per_s" "1/s" ~samples:nok (float_of_int nok /. wall);
      metric "run_ms_p50" "ms" ~samples:nok (Stats.percentile run_ms_scaled 0.5);
      metric "facade_object_ratio" "ratio" ~samples:(List.length rounds)
        (Stats.median
           (List.map (fun r -> r.Vm_stream.r_object /. r.Vm_stream.r_facade) rounds));
      metric "cpu_ms_per_job" "ms" ~samples:nok
        (cpu_ms_per_job *. Probe.nominal_ref /. Stats.median refs);
      metric "latency_p50_ms" "ms" ~samples:attempted (Stats.percentile lat_all 0.5);
      metric "slo_frac_100ms" "frac" ~samples:attempted
        (float_of_int (List.length (List.filter (fun l -> l <= slo_ms) lat_all))
        /. float_of_int attempted);
      metric "peak_rss_mb" "MiB" ~samples:1 rss;
    ]
  in
  let tails =
    [
      metric "tail.run_ms_p99" "ms" ~samples:nok
        (Stats.windowed_percentile ~window:Probe.tail_window run_ms_scaled 0.99);
      metric "tail.latency_p99_ms" "ms" ~samples:attempted
        (Stats.windowed_percentile ~window:Probe.tail_window lat_all 0.99);
    ]
  in
  let codes =
    List.sort_uniq compare
      (List.filter_map (fun f -> match f.outcome with `Rejected c -> Some c | _ -> None) fin)
  in
  let count p = List.length (List.filter p fin) in
  let notes =
    [
      Printf.sprintf "failed_frac = %.6f (n=%d): %d wrong, %d failed, %d rejected%s"
        (float_of_int failed /. float_of_int attempted) attempted
        (count (fun f -> f.outcome = `Wrong))
        (count (fun f -> f.outcome = `Failed))
        (count (fun f -> match f.outcome with `Rejected _ -> true | _ -> false))
        (String.concat ""
           (List.map
              (fun c ->
                Printf.sprintf " %s=%d" c (count (fun f -> f.outcome = `Rejected c)))
              codes));
      Probe.describe_tails tails;
      Printf.sprintf "offered %.0f jobs/s for %.1f s over %d sender threads; wall %.3f s" rate
        seconds senders wall;
      Printf.sprintf "daemon cpu %.3f s over %.3f s wall; load generator cpu %.3f s" daemon_cpu
        wall my_cpu;
      Printf.sprintf
        "host reference loop: nominal %.4f ms, median %.4f ms (n=%d); unscaled run_ms p50 %.5f, \
         cpu_ms_per_job %.5f"
        (ms Probe.nominal_ref) (ms (Stats.median refs)) (List.length refs)
        (Stats.percentile run_ms 0.5) cpu_ms_per_job;
      (* Where the slowest 1% of jobs spent their time. *)
      (let cut = Stats.percentile (List.map (fun (_, _, l) -> l) ok) 0.99 in
       let tail = List.filter (fun (_, _, l) -> l >= cut) ok in
       let avg f = ms (Stats.mean (List.map f tail)) in
       Printf.sprintf
         "slowest 1%% (n=%d), mean ms: latency %.3f = send lag %.3f + queue %.3f + run %.3f + \
          rest %.3f"
         (List.length tail)
         (avg (fun (_, _, l) -> l))
         (avg (fun (f, _, _) -> f.lag))
         (avg (fun (_, oc, _) -> float_of_int oc.Pr.oc_queued_ns /. 1e9))
         (avg (fun (_, oc, _) -> float_of_int oc.Pr.oc_run_ns /. 1e9))
         (avg (fun (f, oc, l) ->
              l -. f.lag -. (float_of_int (oc.Pr.oc_queued_ns + oc.Pr.oc_run_ns) /. 1e9))));
    ]
  in
  let bad_order =
    List.filter
      (fun (_, oc, l) -> ns_ms (oc.Pr.oc_queued_ns + oc.Pr.oc_run_ns) > ms l +. 0.001)
      ok
  in
  (* The generator, not the daemon, is the bottleneck when it is busy
     for most of a core or sends late as a rule rather than by exception. *)
  let lag_p50 = Stats.percentile lags 0.5 in
  let problems =
    List.filter_map
      (fun f ->
        match f.outcome with
        | `Wrong -> Some (Printf.sprintf "wrong result from job %d (%s)" f.job.jid f.job.prog)
        | _ -> None)
      fin
    @ List.map (fun n -> "in-process " ^ n) inproc.Vm_stream.failures
    @ (if bad_order <> [] then
         [ Printf.sprintf "%d jobs: queue + run exceeds latency" (List.length bad_order) ]
       else [])
    @ (if loadgen_cpu_frac > 0.5 || lag_p50 > 1. then
         [
           Printf.sprintf "invalid run: load generator saturated (cpu %.2f, lag p50 %.3f ms)"
             loadgen_cpu_frac lag_p50;
         ]
       else [])
    @
    let recompiles = List.fold_left (fun a (_, oc, _) -> a + oc.Pr.oc_tier2_recompiles) 0 ok in
    if recompiles > 0 then [ Printf.sprintf "%d warm tier-2 recompiles" recompiles ] else []
  in
  let per_layer =
    match tracer with
    | None -> []
    | Some _ ->
        let c name unit_ v = metric name unit_ ~samples:nok v in
        let mean f = Stats.mean (List.map f ok) in
        let seq = List.filter (fun (f, _, _) -> f.job.workers = 0) ok in
        let points =
          List.filter_map
            (fun (name, _) ->
              match List.filter (fun (f, _, _) -> f.job.prog = name) seq with
              | [] -> None
              | (_, oc, _) :: _ as l ->
                  Some
                    ( float_of_int oc.Pr.oc_steps,
                      Stats.median (List.map (fun (_, oc, _) -> float_of_int oc.Pr.oc_run_ns /. 1e9) l) ))
            wire
        in
        let fixed, per_step = Vm_stream.fixed_and_per_step points in
        let par = List.filter (fun (f, _, _) -> f.job.workers > 0) ok in
        let queue = List.map (fun (_, oc, _) -> ns_ms oc.Pr.oc_queued_ns) ok in
        let polls = List.fold_left (fun a st -> a + st.polls) 0 sts in
        let lat_t = lat_of (List.filter (fun (f, _, _) -> f.traced) ok) in
        let setup_ms layer =
          metric (layer ^ "_ms") "ms" ~samples:1
            (Stats.median (List.map (fun r -> ms (Vm_stream.count r.Vm_stream.cost layer)) inproc.Vm_stream.setups))
        in
        tails
        @ List.map setup_ms
            [ "facade_compiler.compile"; "opt.optimize"; "link.link"; "tier.make_tier"; "tier.cold_run" ]
        @ [
            c "interp.steps_per_job" "count" (mean (fun (_, oc, _) -> float_of_int oc.Pr.oc_steps));
            c "interp.ns_per_step" "ns" (per_step *. 1e9);
            c "interp.fixed_us_per_run" "us" (fixed *. 1e6);
            c "tier.osr_entries" "count" (mean (fun (_, oc, _) -> float_of_int oc.Pr.oc_osr_entries));
            c "tier.recompiles_warm" "count"
              (float_of_int (List.fold_left (fun a (_, oc, _) -> a + oc.Pr.oc_tier2_recompiles) 0 ok));
            c "tier.compiles_warm" "count"
              (float_of_int (List.fold_left (fun a (_, oc, _) -> a + oc.Pr.oc_tier2_compiles) 0 ok));
            c "pagestore.records_per_job" "count"
              (mean (fun (_, oc, _) -> float_of_int oc.Pr.oc_page_records));
            c "pagestore.peak_native_kb" "KiB"
              (mean (fun (_, oc, _) -> float_of_int oc.Pr.oc_peak_native /. 1024.));
            metric "proto.submit_rtt_us" "us" ~samples:attempted
              (1e6 *. Stats.median (List.concat_map (fun st -> st.submit_rtt) sts));
            metric "proto.poll_rtt_us" "us" ~samples:polls
              (1e6 *. Stats.median (List.concat_map (fun st -> st.poll_rtt) sts));
            c "proto.polls_per_job" "count" (float_of_int polls /. float_of_int nok);
            c "scheduler.queue_wait_ms_p50" "ms" (Stats.percentile queue 0.5);
            c "scheduler.queue_wait_ms_p99" "ms" (Stats.percentile queue 0.99);
            metric "scheduler.rejects_per_job" "count" ~samples:attempted
              (float_of_int (count (fun f -> match f.outcome with `Rejected _ -> true | _ -> false))
              /. float_of_int attempted);
            c "engine.run_ms" "ms" (Stats.median run_ms);
            c "engine.runner_busy_frac" "frac"
              (Stats.sum (List.map (fun (_, oc, _) -> float_of_int oc.Pr.oc_run_ns /. 1e9) ok)
              /. (float_of_int runners *. wall));
            metric "parallel.job_run_ms" "ms" ~samples:(List.length par)
              (if par = [] then 0. else Stats.median (List.map (fun (_, oc, _) -> ns_ms oc.Pr.oc_run_ns) par));
            c "serve.unaccounted_ms" "ms"
              (Stats.median
                 (List.map
                    (fun (_, oc, l) -> ms l -. ns_ms (oc.Pr.oc_queued_ns + oc.Pr.oc_run_ns))
                    ok));
            metric "loadgen.lag_ms" "ms" ~samples:attempted (Stats.percentile lags 0.99);
            metric "loadgen.cpu_frac" "frac" ~samples:1 loadgen_cpu_frac;
            metric "trace.overhead_frac" "frac" ~samples:(List.length lat_t)
              (Stats.median lat_t /. Stats.median (lat_of untraced) -. 1.);
            metric "trace.jobs_checked" "count" ~samples:nok (float_of_int nok);
          ]
  in
  {
    Probe.end_to_end;
    per_layer;
    notes;
    attempted = attempted + List.length inproc.Vm_stream.samples + Array.length inproc.Vm_stream.progs;
    failed = failed + List.length inproc.Vm_stream.failures;
    problems;
  }
