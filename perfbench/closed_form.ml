(* Exact reliabilities the gate-level Monte Carlo is checked against. *)

(* A k-gate XOR chain computes parity; an upset of any one gate flips the
   output, so the output is right iff an even number of the k gates
   failed: sum over even j of C(k,j) p^j (1-p)^(k-j) = (1 + (1-2p)^k) / 2. *)
let xor_chain_correct ~gates ~p_gate = (1.0 +. ((1.0 -. (2.0 *. p_gate)) ** float_of_int gates)) /. 2.0

(* Module-level NMR with a perfect voter fails when a majority of the n
   modules fail. *)
let nmr_failure ~n ~p_fail = 1.0 -. Resoc_hw.Redundancy.r_nmr ~n (1.0 -. p_fail)

(* Standard score of a Monte-Carlo proportion against its exact value. *)
let z_score ~estimate ~exact ~trials =
  let sigma = sqrt (exact *. (1.0 -. exact) /. float_of_int trials) in
  if sigma = 0.0 then (if estimate = exact then 0.0 else infinity)
  else (estimate -. exact) /. sigma
