(* The benchmark's host speed reference (see [Probe.host_speed]).

     hostref.exe

   For every line read from standard input, times a fixed loop that runs
   no code of the repository and writes the loop's wall seconds on a line
   of its own; it exits at the end of its input. It runs as a process of
   its own so that the loop's code and data sit at the same addresses
   whatever the repository's libraries hold: linked into the benchmark,
   the same loop ran a quarter slower or faster from one build to the
   next. *)

let reference_array = Array.init 65536 (fun i -> i land 255)

let reference_seconds () =
  let t0 = Unix.gettimeofday () in
  let s = ref 0 in
  for _ = 1 to 8 do
    Array.iter (fun x -> s := !s + x) reference_array
  done;
  ignore (Sys.opaque_identity !s);
  Unix.gettimeofday () -. t0

let () =
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.9f\n%!" (reference_seconds ())
    done
  with End_of_file -> ()
