(* What the benchmark measures with: clocks, process counters read from
   /proc, spans recorded around its own calls into the program, and the
   metric records it prints. *)

let now = Unix.gettimeofday

(* {2 Metrics} *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric name unit_ ~samples value = { name; unit_; value; samples }

let describe_tails ms =
  String.concat "; "
    (List.map (fun m -> Printf.sprintf "%s = %.4f %s (n=%d)" m.name m.value m.unit_ m.samples) ms)

(* Jobs per window of a windowed p99 ([Stats.windowed_percentile]): each
   window then has ten jobs beyond its p99. *)
let tail_window = 1000

(* {2 Spans}

   The tracer is created by the benchmark and never installed, so the
   program's internal instrumentation stays off; every span is one the
   benchmark opens around a call into a layer's public functions. Spans
   of one job carry its id. *)

type spans = { tracer : Obs.Tracer.t option; lane : int option }

let no_spans = { tracer = None; lane = None }

let span sp ?(job = -1) name f =
  match sp.tracer with
  | None -> f ()
  | Some t -> (
      let args = if job >= 0 then [ ("job", Obs.Tracer.Aint job) ] else [] in
      Obs.Tracer.span_begin t ?lane:sp.lane ~args ~cat:"layer" name;
      match f () with
      | v ->
          Obs.Tracer.span_end t ?lane:sp.lane ();
          v
      | exception e ->
          Obs.Tracer.span_end t ?lane:sp.lane ();
          raise e)

(* [f ()] and the wall seconds it took. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* {2 Process counters} *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let line =
    String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid))
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* User + system CPU seconds a process has used, from /proc/<pid>/stat.
   The command name may hold spaces, so fields are counted after its
   closing parenthesis: utime and stime are the 12th and 13th. *)
let cpu_seconds ~clk_tck pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) /. float_of_int clk_tck

(* Minor words allocated and major collections run by the host OCaml
   runtime, for deltas around one run. *)
let host_gc () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* {2 A workload's report} *)

type report = {
  end_to_end : metric list;
  per_layer : metric list;
  notes : string list;  (* human-readable extras, printed before the result *)
  attempted : int;
  failed : int;
  problems : string list;  (* any entry makes the run incorrect *)
}

(* {2 Host speed}

   On a shared host the same code runs up to 1.8x slower for seconds or
   minutes at a time, with no steal time to show for it. So between jobs,
   at most every [host_interval] seconds, the benchmark times a fixed loop
   in its reference process ([hostref.exe]), and reports each time scaled
   by [nominal_ref / current], where [current] is the loop's latest time:
   a reported time is what the job would have taken on a host on which
   the loop takes [nominal_ref]. The scale is the same constant in every
   run, so a run that spends all its time on a slow host reads like one
   on a fast host; a scale relative to the run's own fastest loop time
   would not correct that. The raw figures are printed beside the scaled
   ones. *)

let host_interval = 0.02

(* The loop's fastest time on one vCPU of a 2.1 GHz Xeon, so that scaled
   times read close to real ones there. *)
let nominal_ref = 1e-3

(* Path of [hostref.exe]; the process starts at the first measurement
   and is stopped when the benchmark exits. *)
let reference_exe = ref "_build/default/perfbench/hostref.exe"
let reference_proc = ref None

let stop_reference () =
  match !reference_proc with
  | None -> ()
  | Some p ->
      reference_proc := None;
      ignore (Unix.close_process p)

let () = at_exit stop_reference

let reference_seconds () =
  let ic, oc =
    match !reference_proc with
    | Some p -> p
    | None ->
        let p = Unix.open_process_args !reference_exe [| !reference_exe |] in
        reference_proc := Some p;
        p
  in
  output_char oc '\n';
  flush oc;
  float_of_string (input_line ic)

type host = { mutable current : float; mutable taken_at : float; mutable refs : float list }

let host () = { current = nan; taken_at = neg_infinity; refs = [] }

(* The reference time to scale the next job by, re-measured when the last
   measurement is older than [host_interval]. *)
let host_speed h =
  if now () -. h.taken_at >= host_interval then begin
    let r = reference_seconds () in
    h.current <- r;
    h.taken_at <- now ();
    h.refs <- r :: h.refs
  end;
  h.current
