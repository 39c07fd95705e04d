(* The benchmark's order statistics and line fit. *)

let close a b = Float.abs (a -. b) < 1e-9

let () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  assert (Stats.percentile xs 0.5 = 3.);
  assert (Stats.median [ 4.; 1.; 3.; 2. ] = 2.);
  assert (Stats.percentile xs 0. = 1.);
  assert (Stats.percentile xs 1. = 5.);
  (* Nearest rank: p99 of 100 samples is the 99th smallest, and of 1000
     samples the 990th. *)
  let hundred = List.init 100 (fun i -> float_of_int (100 - i)) in
  assert (Stats.percentile hundred 0.99 = 99.);
  assert (Stats.percentile (List.init 1000 float_of_int) 0.99 = 989.);
  assert (Stats.percentile [ 7. ] 0.99 = 7.);
  assert (close (Stats.mean xs) 3.);
  (* A line through exact points is recovered; noise symmetric about it
     leaves it unchanged. *)
  let i, s = Stats.fit [ (1., 12.); (2., 14.); (4., 18.) ] in
  assert (close i 10. && close s 2.);
  let i, s = Stats.fit [ (0., 1.); (0., 3.); (10., 21.); (10., 23.) ] in
  assert (close i 2. && close s 2.);
  (match Stats.fit [ (1., 1.); (1., 2.) ] with
  | _ -> assert false
  | exception Invalid_argument _ -> ());
  (match Stats.percentile [] 0.5 with
  | _ -> assert false
  | exception Invalid_argument _ -> ());
  (* Windowed tail: one window's outlier does not move the median of the
     windows' percentiles; short inputs fall back to the plain one. *)
  let calm = List.init 100 (fun i -> float_of_int (i mod 10)) in
  let stalled = List.init 100 (fun i -> if i = 0 then 1000. else float_of_int (i mod 10)) in
  assert (Stats.windowed_percentile ~window:10 calm 1. = 9.);
  assert (Stats.windowed_percentile ~window:10 stalled 1. = 9.);
  assert (Stats.percentile stalled 1. = 1000.);
  assert (Stats.windowed_percentile ~window:1000 stalled 0.99 = Stats.percentile stalled 0.99);
  (* 25 samples in windows of 10: two windows, the second holding 15. *)
  let xs = List.init 25 float_of_int in
  assert (Stats.windowed_percentile ~window:10 xs 1. = Stats.median [ 9.; 24. ]);
    print_endline "stats: ok"
