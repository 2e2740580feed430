(* Layout: logical code positions 0..71.
   Position 0 holds the overall parity bit.
   Positions 1..71 form a Hamming(71,64) code: positions that are powers of
   two (1,2,4,8,16,32,64) hold check bits; the remaining 64 positions hold
   data bits in increasing-position order.

   The codec is word-parallel. Syndrome bit j is the parity of the set
   positions whose index has bit j set: one AND of [lo] and [hi] with
   the precomputed position masks [m_j]/[h_j] and an xor-fold. For j >= 3
   no position in 64..71 has bit j set except j = 6, which all of them
   have, so only [h0..h2] are real masks, bit 6 is the parity of [hi]
   and [lo] contributes nothing to it. The data bits occupy six runs of
   consecutive non-power-of-two positions — 3, 5..7, 9..15, 17..31 and
   33..63 in [lo], 65..71 in [hi] — so scatter and gather are six
   shift/mask segments. *)

type codeword = { lo : int64; hi : int }
(* [lo] holds code positions 0..63, [hi] positions 64..71 (8 bits). *)

type status = Clean | Corrected | Uncorrectable

let width = 72
let data_width = 64

let mask_lo j =
  let m = ref 0L in
  for i = 1 to 63 do
    if i land (1 lsl j) <> 0 then m := Int64.logor !m (Int64.shift_left 1L i)
  done;
  !m

let mask_hi j =
  let m = ref 0 in
  for i = 64 to 71 do
    if i land (1 lsl j) <> 0 then m := !m lor (1 lsl (i - 64))
  done;
  !m

let m0 = mask_lo 0 and m1 = mask_lo 1 and m2 = mask_lo 2
let m3 = mask_lo 3 and m4 = mask_lo 4 and m5 = mask_lo 5
let h0 = mask_hi 0 and h1 = mask_hi 1 and h2 = mask_hi 2

let () =
  assert (mask_hi 3 = 0 && mask_hi 4 = 0 && mask_hi 5 = 0 && mask_hi 6 = 0xff);
  assert (Int64.equal (mask_lo 6) 0L)

(* Parity of the 64 bits of [x] plus the 8 bits of [h]. *)
let[@inline] parity x h =
  let x = Int64.logxor x (Int64.of_int h) in
  let x = Int64.logxor x (Int64.shift_right_logical x 32) in
  let x = Int64.to_int x in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  (x lxor (x lsr 1)) land 1

(* XOR of the indices of all set positions in 1..71; zero for a valid
   Hamming codeword. Position 0 is in no mask. *)
let[@inline] syndrome lo hi =
  parity (Int64.logand lo m0) (hi land h0)
  lor (parity (Int64.logand lo m1) (hi land h1) lsl 1)
  lor (parity (Int64.logand lo m2) (hi land h2) lsl 2)
  lor (parity (Int64.logand lo m3) 0 lsl 3)
  lor (parity (Int64.logand lo m4) 0 lsl 4)
  lor (parity (Int64.logand lo m5) 0 lsl 5)
  lor (parity 0L hi lsl 6)

let[@inline] seg x ~from ~width ~to_ =
  Int64.shift_left
    (Int64.logand (Int64.shift_right_logical x from) (Int64.pred (Int64.shift_left 1L width)))
    to_

let encode data =
  (* Scatter data bits 0, 1..3, 4..10, 11..25, 26..56 and 57..63. *)
  let lo =
    Int64.logor
      (Int64.logor (seg data ~from:0 ~width:1 ~to_:3) (seg data ~from:1 ~width:3 ~to_:5))
      (Int64.logor
         (Int64.logor (seg data ~from:4 ~width:7 ~to_:9) (seg data ~from:11 ~width:15 ~to_:17))
         (seg data ~from:26 ~width:31 ~to_:33))
  in
  let hi = Int64.to_int (Int64.shift_right_logical data 57) lsl 1 in
  (* Check bit at position 2^j makes the syndrome's bit j vanish. *)
  let s = syndrome lo hi in
  let lo =
    Int64.logor lo
      (Int64.of_int
         ((s land 1) lsl 1
         lor ((s lsr 1) land 1) lsl 2
         lor ((s lsr 2) land 1) lsl 4
         lor ((s lsr 3) land 1) lsl 8
         lor ((s lsr 4) land 1) lsl 16
         lor ((s lsr 5) land 1) lsl 32))
  in
  let hi = hi lor ((s lsr 6) land 1) in
  assert (syndrome lo hi = 0);
  (* Overall parity (position 0) makes total parity even. *)
  { lo = Int64.logor lo (Int64.of_int (parity lo hi)); hi }

let[@inline] extract lo hi =
  Int64.logor
    (Int64.logor (seg lo ~from:3 ~width:1 ~to_:0) (seg lo ~from:5 ~width:3 ~to_:1))
    (Int64.logor
       (Int64.logor (seg lo ~from:9 ~width:7 ~to_:4) (seg lo ~from:17 ~width:15 ~to_:11))
       (Int64.logor (seg lo ~from:33 ~width:31 ~to_:26)
          (Int64.shift_left (Int64.of_int ((hi lsr 1) land 0x7f)) 57)))

let decode w =
  let lo = w.lo and hi = w.hi in
  let s = syndrome lo hi in
  let parity_odd = parity lo hi = 1 in
  if s = 0 && not parity_odd then (extract lo hi, Clean)
  else if s = 0 && parity_odd then
    (* The overall parity bit itself flipped; data is intact. *)
    (extract lo hi, Corrected)
  else if parity_odd then
    (* Odd number of flips with a non-zero syndrome: treat as the
       single-bit error at position [s] and repair it. A syndrome past
       position 71 names no stored bit; nothing is repaired then. *)
    if s < 64 then (extract (Int64.logxor lo (Int64.shift_left 1L s)) hi, Corrected)
    else if s < width then (extract lo (hi lxor (1 lsl (s - 64))), Corrected)
    else (extract lo hi, Corrected)
  else
    (* Non-zero syndrome, even parity: double-bit error, not correctable. *)
    (extract lo hi, Uncorrectable)

let flip w i =
  if i < 0 || i >= width then invalid_arg "Ecc.flip: bit out of range";
  if i < 64 then { w with lo = Int64.logxor w.lo (Int64.shift_left 1L i) }
  else { w with hi = w.hi lxor (1 lsl (i - 64)) }

let bits_set w =
  let n = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical w.lo i) 1L = 1L then incr n
  done;
  for i = 0 to 7 do
    if (w.hi lsr i) land 1 = 1 then incr n
  done;
  !n

let equal a b = Int64.equal a.lo b.lo && a.hi = b.hi

let pp ppf w = Format.fprintf ppf "%02x%016Lx" w.hi w.lo
