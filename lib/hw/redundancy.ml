let binomial n k =
  if k < 0 || k > n then 0.0
  else begin
    let k = min k (n - k) in
    let acc = ref 1.0 in
    for i = 0 to k - 1 do
      acc := !acc *. float_of_int (n - i) /. float_of_int (i + 1)
    done;
    !acc
  end

let r_simplex r = r

let r_nmr ~n r =
  if n < 1 || n mod 2 = 0 then invalid_arg "Redundancy.r_nmr: n must be odd and positive";
  let majority = (n / 2) + 1 in
  let acc = ref 0.0 in
  for k = majority to n do
    acc := !acc +. (binomial n k *. (r ** float_of_int k) *. ((1.0 -. r) ** float_of_int (n - k)))
  done;
  !acc

let r_tmr r = r_nmr ~n:3 r

let r_nmr_with_voter ~n ~voter r = voter *. r_nmr ~n r

module Rng = Resoc_des.Rng

let check_probability name p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg (name ^ " must be in [0,1]")

(* Fault placement by geometric skip: with every position failing
   independently with probability [p], the gap to the next failure is
   geometric, so one draw finds the next faulty position. The sampler is
   prepared once per estimate; [None] stands for [p = 0], which never
   fails. The [max_int] clamp stands for "beyond any position". *)
let fault_sampler p = if p <= 0.0 then None else Some (Rng.geometric_of ~p)

let next_fault rng sampler pos =
  match sampler with
  | None -> max_int
  | Some g ->
      let skip = Rng.draw_geometric rng g in
      if skip >= max_int - pos - 1 then max_int else pos + 1 + skip

let mc_module_nmr rng ~n ~trials ~p_fail =
  if trials <= 0 then invalid_arg "Redundancy.mc_module_nmr: trials must be positive";
  if n < 1 || n mod 2 = 0 then invalid_arg "Redundancy.mc_module_nmr: n must be odd and positive";
  check_probability "Redundancy.mc_module_nmr: p_fail" p_fail;
  if trials > max_int / n then invalid_arg "Redundancy.mc_module_nmr: too many trials";
  (* Position [t * n + m] is module [m] of trial [t]. Faults arrive in
     position order, so each trial's failure count is streamed and the
     trial counted once, when its failures first outvote the rest. *)
  let outvoted = (n + 1) / 2 in
  let sampler = fault_sampler p_fail in
  let positions = trials * n in
  let failures = ref 0 in
  let trial = ref (-1) in
  let count = ref 0 in
  let pos = ref (next_fault rng sampler (-1)) in
  while !pos < positions do
    let t = !pos / n in
    if t <> !trial then begin
      trial := t;
      count := 0
    end;
    incr count;
    if !count = outvoted then incr failures;
    pos := next_fault rng sampler !pos
  done;
  float_of_int !failures /. float_of_int trials

let lanes = Sys.int_size

let rec popcount acc x = if x = 0 then acc else popcount (acc + 1) (x land (x - 1))

let mc_circuit_correct rng circuit ~trials ~p_gate =
  if trials <= 0 then invalid_arg "Redundancy.mc_circuit_correct: trials must be positive";
  check_probability "Redundancy.mc_circuit_correct: p_gate" p_gate;
  let size = Circuit.size circuit in
  let fallible = Circuit.fallible_gates circuit in
  let outputs = Circuit.outputs circuit in
  let inputs = Array.make (Circuit.n_inputs circuit) 0 in
  let flips = Array.make size 0 in
  let values = Array.make size 0 in
  let golden = Array.make (Array.length outputs) 0 in
  let correct = ref 0 in
  let sampler = fault_sampler p_gate in
  (* A batch runs [active] trials, one per lane. Its fault positions are
     [j * active + lane] for fallible gate [j]; [next] is the next faulty
     position counted from the batch's start, carried into the next batch. *)
  let next = ref (next_fault rng sampler (-1)) in
  let remaining = ref trials in
  while !remaining > 0 do
    let active = min lanes !remaining in
    let span = active * Array.length fallible in
    if !next >= span then correct := !correct + active
    else begin
      for k = 0 to Array.length inputs - 1 do
        inputs.(k) <- Rng.bits rng
      done;
      (* [flips] is all zero between batches: the golden run. *)
      Circuit.eval_words circuit ~inputs ~flips values;
      for o = 0 to Array.length outputs - 1 do
        golden.(o) <- values.(outputs.(o))
      done;
      while !next < span do
        let g = fallible.(!next / active) in
        flips.(g) <- flips.(g) lor (1 lsl (!next mod active));
        next := next_fault rng sampler !next
      done;
      Circuit.eval_words circuit ~inputs ~flips values;
      (* Lanes past [active] get no flips, so they never differ. *)
      let wrong = ref 0 in
      for o = 0 to Array.length outputs - 1 do
        wrong := !wrong lor (golden.(o) lxor values.(outputs.(o)))
      done;
      correct := !correct + active - popcount 0 !wrong;
      Array.fill flips 0 size 0
    end;
    if !next < max_int then next := !next - span;
    remaining := !remaining - active
  done;
  float_of_int !correct /. float_of_int trials
