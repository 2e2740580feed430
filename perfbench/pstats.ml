(* Order statistics for the benchmark's reports. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least p% of the mass at or
   below it (the same definition as Resoc_des.Metrics.Histogram). *)
let rank ~n p =
  (* The epsilon keeps 99.9% of 10000 at rank 9990, not 9991. *)
  let r = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)) - 1 in
  max 0 (min (n - 1) r)

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.percentile: no samples";
  (sorted a).(rank ~n p)

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Tail levels tried from the highest down. *)
let tail_levels =
  [ 99.99; 99.9; 99.5; 99.0; 98.0; 97.5; 95.0; 90.0; 85.0; 80.0; 75.0; 70.0; 60.0; 50.0 ]

(* Samples strictly above the nearest-rank position of [p]. *)
let beyond ~n p = n - 1 - rank ~n p

(* The tail of a sample: the highest percentile with at least 10 samples
   beyond it, the median when there are too few. Returns (level, value). *)
let tail a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.tail: no samples";
  let level =
    match List.find_opt (fun p -> beyond ~n p >= 10) tail_levels with Some p -> p | None -> 50.0
  in
  (level, (sorted a).(rank ~n level))
