(* Workload input generator. The benchmark owns its inputs: every arrival
   time, client choice and simulation seed comes from this SplitMix64
   stream keyed by the --seed argument, so the libraries under test only
   ever see generated values, and a change to their own RNG cannot change
   what the benchmark feeds them. *)

type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.logxor seed 0x5EEDBE4C4L) }

let next t =
  t.state <- Int64.add t.state gamma;
  mix t.state

(* [derive seed path] names an independent stream: one per workload part
   and replicate, independent of the order in which parts are run. *)
let derive seed path =
  List.fold_left
    (fun acc i -> mix (Int64.add acc (Int64.mul gamma (Int64.of_int (i + 1)))))
    (mix seed) path

let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

let int t n = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int n))

let exponential t ~mean = -.mean *. log (1.0 -. float t)
