(* gate-mc: gate-level Monte Carlo (E1's bottom layer). Only resoc_hw and
   the DES RNG do work here, so a des, noc or repl change must predict no
   change on this workload.

   One replicate is one Monte-Carlo estimate:
   - E1's module, random logic with 8 inputs and 400 gates, as simplex,
     TMR and NMR-5 with fallible voters, across E1's p_gate ladder;
   - XOR-chain parity circuits, checked against (1 + (1-2p)^k) / 2;
   - module-level NMR, checked against Redundancy.r_nmr. *)

module Rng = Resoc_des.Rng
module Circuit = Resoc_hw.Circuit
module Redundancy = Resoc_hw.Redundancy

let p_ladder = [ 0.0001; 0.0005; 0.001; 0.002; 0.005; 0.01; 0.02 ]
let chain_sizes = [ 16; 64; 256 ]
let chain_ps = [ 0.001; 0.005; 0.02 ]
let nmr_ns = [ 3; 5 ]
let nmr_ps = [ 0.05; 0.1; 0.2 ]

(* Every estimate gets about the same work, so per-replicate host times
   form one cluster and their median does not sit on the edge between a
   cheap and a costly kind of estimate. A circuit estimate evaluates about
   [gate_budget] gates (trials = budget / gate count: 1500 trials of the
   simplex module); a module-NMR trial costs about as much as 0.25 gates
   per module. *)
let gate_budget = 600_000
let circuit_trials c = gate_budget / Circuit.gate_count c
let nmr_trials n = gate_budget * 4 / n

(* A check fails beyond 5 sigma: about 6e-7 false alarms per estimate, so
   the 15 checked estimates of a pass stay clear of chance failures over
   thousands of seeds (4 sigma would false-alarm on ~1e-3 of passes). *)
let z_limit = 5.0

(* k-gate XOR chain over k+1 inputs. *)
let xor_chain k =
  let gates =
    Array.init ((2 * k) + 1) (fun i ->
        if i <= k then Circuit.Input i
        else
          let g = i - k - 1 in
          (* gate g xors the previous chain value with input g+1 *)
          let prev = if g = 0 then 0 else k + g in
          Circuit.Xor (prev, g + 1))
  in
  Circuit.build ~n_inputs:(k + 1) gates ~outputs:[| 2 * k |]

type estimate =
  | Circuit_mc of { label : string; circuit : Circuit.t; p : float; trials : int; exact : float option }
  | Module_nmr of { n : int; p : float; trials : int }

let label = function
  | Circuit_mc { label; p; _ } -> Printf.sprintf "%s@%g" label p
  | Module_nmr { n; p; _ } -> Printf.sprintf "module-nmr%d@%g" n p

let gates_of = function
  | Circuit_mc { circuit; trials; _ } -> trials * Circuit.gate_count circuit * 2
  | Module_nmr _ -> 0

let trials_of = function Circuit_mc { trials; _ } | Module_nmr { trials; _ } -> trials

(* Set-up: build every circuit of the pass. *)
let setup seed =
  let build f = Spans.span Spans.hw_build 0 f in
  let rng = Rng.create (Gen.derive seed [ 0 ]) in
  let module_c = build (fun () -> Circuit.random_logic rng ~n_inputs:8 ~n_gates:400) in
  let tmr = build (fun () -> Circuit.replicate_with_voter module_c 3) in
  let nmr5 = build (fun () -> Circuit.replicate_with_voter module_c 5) in
  let chains = List.map (fun k -> (k, build (fun () -> xor_chain (k - 1)))) chain_sizes in
  let module_estimates =
    List.concat_map
      (fun p ->
        List.map
          (fun (label, circuit) ->
            Circuit_mc { label; circuit; p; trials = circuit_trials circuit; exact = None })
          [ ("simplex", module_c); ("tmr", tmr); ("nmr5", nmr5) ])
      p_ladder
  in
  let chain_estimates =
    List.concat_map
      (fun (n, circuit) ->
        List.map
          (fun p ->
            let gates = Circuit.gate_count circuit in
            Circuit_mc
              {
                label = Printf.sprintf "xor-chain%d" n;
                circuit;
                p;
                trials = circuit_trials circuit;
                exact = Some (Closed_form.xor_chain_correct ~gates ~p_gate:p);
              })
          chain_ps)
      chains
  in
  let nmr_estimates =
    List.concat_map
      (fun n -> List.map (fun p -> Module_nmr { n; p; trials = nmr_trials n }) nmr_ps)
      nmr_ns
  in
  Array.of_list (module_estimates @ chain_estimates @ nmr_estimates)

let finish estimates values =
  let failures = ref [] in
  let check e value exact =
    let z = Closed_form.z_score ~estimate:value ~exact ~trials:(trials_of e) in
    if Float.abs z > z_limit then
      failures :=
        Printf.sprintf "%s: estimate %.5f vs exact %.5f (z=%.2f)" (label e) value exact z :: !failures
  in
  Array.iteri
    (fun i e ->
      let value = fst values.(i) in
      match e with
      | Circuit_mc { exact = Some exact; _ } -> check e value exact
      | Circuit_mc { exact = None; _ } ->
        if value < 0.0 || value > 1.0 then failures := (label e ^ ": out of range") :: !failures
      | Module_nmr { n; p; _ } -> check e value (Closed_form.nmr_failure ~n ~p_fail:p))
    estimates;
  let sum f = Array.fold_left (fun acc e -> acc + f e) 0 estimates in
  let trials = sum trials_of in
  {
    Outcome.units = trials;
    replicate_s = Array.map snd values;
    inner_setup_s = 0.0;
    sim = [];
    counts = [ ("hw.gate_evals", float_of_int (sum gates_of)); ("hw.trials", float_of_int trials) ];
    digest =
      Outcome.digest_of
        (Array.to_list (Array.mapi (fun i e -> Printf.sprintf "%s %h" (label e) (fst values.(i))) estimates));
    attempted = Array.length estimates;
    failures = List.rev !failures;
  }

(* The timed phase runs every estimate, in blocks of [block_size];
   [finish] checks and digests them afterwards. *)
let block_size = 12

let run seed estimates =
  let values = Array.make (Array.length estimates) (nan, 0.0) in
  let block lo hi () =
    for i = lo to hi - 1 do
      let rng = Rng.create (Gen.derive seed [ 1; i ]) in
      values.(i) <-
        Outcome.timed (fun () ->
            Spans.span Spans.hw_mc i (fun () ->
                match estimates.(i) with
                | Circuit_mc { circuit; p; trials; _ } ->
                  Redundancy.mc_circuit_correct rng circuit ~trials ~p_gate:p
                | Module_nmr { n; p; trials } -> Redundancy.mc_module_nmr rng ~n ~trials ~p_fail:p))
    done;
    hi - lo
  in
  let n = Array.length estimates in
  {
    Outcome.blocks =
      List.init ((n + block_size - 1) / block_size) (fun b ->
          block (b * block_size) (min n ((b + 1) * block_size)));
    finish = (fun () -> finish estimates values);
  }

let prepare seed = run seed (setup seed)
