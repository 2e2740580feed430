(* The SplitMix64 state lives unboxed in an 8-byte buffer. A [mutable
   state : int64] field would box a fresh int64 on every write; the
   buffer's 64-bit accessors are compiler primitives, so every draw reads,
   advances and writes the state without allocating, also where the
   compiler cannot inline across modules. The state never leaves the
   process, so native endianness is fine. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

(* Uniform on [0, 1): the top 53 bits of one output. *)
let[@inline] unit_float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

let int64 t = next t

let bits t = Int64.to_int (next t)

let split t =
  let seed = next t in
  (* A second mixing round decorrelates the child stream from the parent. *)
  create (mix (Int64.logxor seed 0xA5A5A5A5A5A5A5A5L))

let derive seed index =
  if index < 0 then invalid_arg "Rng.derive: index must be non-negative";
  (* Closed form for the [index]-th split child of [create seed]: the
     parent's (index+1)-th raw output is mix (seed + (index+1)*gamma), and
     [split] turns each output into a child state with one more mixing
     round. O(1) in [index], so a campaign can address any leaf of the seed
     tree directly without replaying its siblings. *)
  let advanced = Int64.add seed (Int64.mul golden_gamma (Int64.of_int (index + 1))) in
  mix (Int64.logxor (mix advanced) 0xA5A5A5A5A5A5A5A5L)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits so Int64.to_int cannot wrap negative on 63-bit ints. *)
  let v = Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL) in
  v mod n

(* Multiplying by 1.0 is exact, so [float t 1.0] is [unit_float t]. *)
let float t x = unit_float t *. x

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

(* Guard against log 0. *)
let[@inline] positive_unit_float t =
  let u = unit_float t in
  if u <= 0.0 then Float.min_float else u

let exponential t ~mean = -.mean *. log (positive_unit_float t)

(* A prepared sampler is [log1p (-.p)]: [neg_infinity] exactly when
   [p = 1]. Endpoints are pinned by test_des: p = 1.0 deterministically
   returns 0 (success on the first trial, no draw consumed); p = 0.0 would
   divide by log 1.0 = 0 and p > 1.0 or a NaN p make the log a NaN, so all
   three are rejected. [log1p] keeps tiny p exact: below ~1e-16,
   [1.0 -. p] rounds to 1.0 and [log (1.0 -. p)] to 0, which turned every
   draw into 0. *)
type geometric = float

let[@inline] geometric_of ~p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Rng.geometric: p must be in (0,1]";
  Float.log1p (-.p)

let[@inline] draw_geometric t log_q =
  if log_q = Float.neg_infinity then 0
  else
    let v = Float.floor (log (positive_unit_float t) /. log_q) in
    (* int_of_float is undefined past the int range; a min_float draw at
       tiny p can push the quotient there. *)
    if v >= float_of_int max_int then max_int else int_of_float v

let geometric t ~p = draw_geometric t (geometric_of ~p)

let normal t ~mu ~sigma =
  let u1 = positive_unit_float t and u2 = unit_float t in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let poisson t ~mean =
  if mean < 0.0 then invalid_arg "Rng.poisson: mean must be non-negative";
  if mean = 0.0 then 0
  else if mean > 500.0 then
    (* Normal approximation keeps Knuth's product away from underflow.
       Round-then-truncate is undefined past the int range, so clamp both
       tails instead of letting an extreme draw wrap negative. *)
    let v = Float.round (normal t ~mu:mean ~sigma:(sqrt mean)) in
    if v <= 0.0 then 0 else if v >= float_of_int max_int then max_int else int_of_float v
  else begin
    let limit = exp (-.mean) in
    let k = ref 0 in
    let prod = ref (unit_float t) in
    while !prod > limit do
      incr k;
      prod := !prod *. unit_float t
    done;
    !k
  end

let weibull t ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Rng.weibull: parameters must be positive";
  scale *. ((-.log (positive_unit_float t)) ** (1.0 /. shape))

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
