(* Order statistics and a least-squares line over benchmark samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least a share [q]
   (in [0, 1]) of all samples at or below it. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> sum xs /. float_of_int (List.length xs)

(* Ordinary least squares [y = intercept + slope * x]. Raises when every
   x is equal, since the line is then undetermined. *)
let fit points =
  let n = float_of_int (List.length points) in
  if n < 2. then invalid_arg "Stats.fit: need two points";
  let mx = sum (List.map fst points) /. n and my = sum (List.map snd points) /. n in
  let sxx = sum (List.map (fun (x, _) -> (x -. mx) *. (x -. mx)) points) in
  let sxy = sum (List.map (fun (x, y) -> (x -. mx) *. (y -. my)) points) in
  if sxx = 0. then invalid_arg "Stats.fit: all x equal";
  let slope = sxy /. sxx in
  (my -. (slope *. mx), slope)

(* A tail percentile that one stall cannot move: [xs] in the order they
   were measured is cut into consecutive windows of [window] samples (the
   last window takes any remainder), and the result is the median of the
   windows' percentiles. With fewer than [window] samples it is the plain
   percentile. *)
let windowed_percentile ~window xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  let k = max 1 (n / window) in
  List.init k (fun i ->
      let lo = i * window and hi = if i = k - 1 then n else (i + 1) * window in
      percentile (Array.to_list (Array.sub a lo (hi - lo))) q)
  |> median
