open Resoc_hw
module Rng = Resoc_des.Rng

(* --- Ecc --- *)

let test_ecc_roundtrip_basic () =
  List.iter
    (fun v ->
      let data, status = Ecc.decode (Ecc.encode v) in
      Alcotest.(check int64) "data" v data;
      Alcotest.(check bool) "clean" true (status = Ecc.Clean))
    [ 0L; 1L; Int64.max_int; Int64.min_int; -1L; 0xDEADBEEFCAFEBABEL ]

let test_ecc_single_flip_all_positions () =
  let v = 0x0123456789ABCDEFL in
  for bit = 0 to Ecc.width - 1 do
    let w = Ecc.flip (Ecc.encode v) bit in
    let data, status = Ecc.decode w in
    Alcotest.(check int64) (Printf.sprintf "bit %d corrected" bit) v data;
    Alcotest.(check bool) (Printf.sprintf "bit %d status" bit) true (status = Ecc.Corrected)
  done

let test_ecc_double_flip_detected () =
  let v = 0xFEEDFACE12345678L in
  (* All pairs is 72*71/2 = 2556 cases; affordable. *)
  for i = 0 to Ecc.width - 1 do
    for j = i + 1 to Ecc.width - 1 do
      let w = Ecc.flip (Ecc.flip (Ecc.encode v) i) j in
      let _, status = Ecc.decode w in
      if status <> Ecc.Uncorrectable then
        Alcotest.failf "double flip (%d,%d) not detected" i j
    done
  done

let test_ecc_flip_bounds () =
  Alcotest.check_raises "flip oob" (Invalid_argument "Ecc.flip: bit out of range") (fun () ->
      ignore (Ecc.flip (Ecc.encode 0L) 72))

let test_ecc_flip_involutive () =
  let w = Ecc.encode 42L in
  Alcotest.(check bool) "double flip restores" true (Ecc.equal w (Ecc.flip (Ecc.flip w 17) 17))

let prop_ecc_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500 QCheck.int64 (fun v ->
      let data, status = Ecc.decode (Ecc.encode v) in
      Int64.equal data v && status = Ecc.Clean)

let prop_ecc_corrects_any_single_flip =
  QCheck.Test.make ~name:"single flip corrected" ~count:500
    QCheck.(pair int64 (int_bound (Ecc.width - 1)))
    (fun (v, bit) ->
      let data, status = Ecc.decode (Ecc.flip (Ecc.encode v) bit) in
      Int64.equal data v && status = Ecc.Corrected)

(* The bit-serial codec Ecc used before it went word-parallel, kept as
   the oracle: codewords (by their printed form), data and status must
   all agree for every input. *)
module Ref_ecc = struct
  type w = { lo : int64; hi : int }

  let is_power_of_two i = i land (i - 1) = 0

  let data_positions =
    Array.of_list (List.filter (fun p -> not (is_power_of_two p)) (List.init 71 (fun i -> i + 1)))

  let get w i =
    if i < 64 then Int64.logand (Int64.shift_right_logical w.lo i) 1L = 1L
    else (w.hi lsr (i - 64)) land 1 = 1

  let set w i b =
    if i < 64 then
      let mask = Int64.shift_left 1L i in
      if b then { w with lo = Int64.logor w.lo mask }
      else { w with lo = Int64.logand w.lo (Int64.lognot mask) }
    else
      let mask = 1 lsl (i - 64) in
      if b then { w with hi = w.hi lor mask } else { w with hi = w.hi land lnot mask }

  let syndrome w =
    let s = ref 0 in
    for i = 1 to 71 do
      if get w i then s := !s lxor i
    done;
    !s

  let parity_over_all w =
    let p = ref false in
    for i = 0 to 71 do
      if get w i then p := not !p
    done;
    !p

  let encode data =
    let w = ref { lo = 0L; hi = 0 } in
    Array.iteri
      (fun k pos -> w := set !w pos (Int64.logand (Int64.shift_right_logical data k) 1L = 1L))
      data_positions;
    let s = syndrome !w in
    let j = ref 1 in
    while !j <= 64 do
      if s land !j <> 0 then w := set !w !j true;
      j := !j lsl 1
    done;
    if parity_over_all !w then w := set !w 0 true;
    !w

  let extract w =
    let d = ref 0L in
    Array.iteri
      (fun k pos -> if get w pos then d := Int64.logor !d (Int64.shift_left 1L k))
      data_positions;
    !d

  let decode w =
    let s = syndrome w in
    let odd = parity_over_all w in
    if s = 0 && not odd then (extract w, Ecc.Clean)
    else if s = 0 then (extract w, Ecc.Corrected)
    else if odd then (extract (set w s (not (get w s))), Ecc.Corrected)
    else (extract w, Ecc.Uncorrectable)

  let flip w i = set w i (not (get w i))

  let to_hex w = Printf.sprintf "%02x%016Lx" w.hi w.lo
end

(* Flip [bits] in both codecs' encodings of [data]; true iff codewords,
   decoded data and status agree. *)
let ecc_matches_reference data bits =
  let w = List.fold_left Ecc.flip (Ecc.encode data) bits in
  let r = List.fold_left Ref_ecc.flip (Ref_ecc.encode data) bits in
  let d, st = Ecc.decode w and rd, rst = Ref_ecc.decode r in
  Format.asprintf "%a" Ecc.pp w = Ref_ecc.to_hex r && Int64.equal d rd && st = rst

let ecc_fixed_words = [ 0L; 1L; -1L; Int64.min_int; 0x5555555555555555L; 0xDEADBEEFCAFEBABEL ]

let test_ecc_matches_reference_flips () =
  List.iter
    (fun v ->
      for i = 0 to Ecc.width - 1 do
        if not (ecc_matches_reference v [ i ]) then Alcotest.failf "%Lx: flip %d differs" v i;
        for j = i + 1 to Ecc.width - 1 do
          if not (ecc_matches_reference v [ i; j ]) then
            Alcotest.failf "%Lx: flips %d,%d differ" v i j
        done
      done)
    ecc_fixed_words;
  (* Triple flips reach syndromes past position 71 (nothing to repair). *)
  let v = 0x0123456789ABCDEFL in
  for i = 0 to Ecc.width - 1 do
    for j = i + 1 to Ecc.width - 1 do
      for k = j + 1 to Ecc.width - 1 do
        if not (ecc_matches_reference v [ i; j; k ]) then
          Alcotest.failf "flips %d,%d,%d differ" i j k
      done
    done
  done

let prop_ecc_matches_reference =
  QCheck.Test.make ~name:"word-parallel codec = bit-serial reference" ~count:2000
    QCheck.(pair int64 (list_of_size Gen.(0 -- 4) (int_bound (Ecc.width - 1))))
    (fun (v, bits) -> ecc_matches_reference v bits)

(* --- Register --- *)

let test_register_write_read () =
  List.iter
    (fun p ->
      let r = Register.create p 99L in
      Register.write r 1234L;
      let v, status = Register.read r in
      Alcotest.(check int64) "value" 1234L v;
      Alcotest.(check bool) "ok" true (status = Register.Ok))
    [ Register.Plain; Register.Parity; Register.Secded ]

let test_register_plain_silent () =
  let r = Register.create Register.Plain 0L in
  Register.inject_upset_at r 5;
  let v, status = Register.read r in
  Alcotest.(check int64) "silently wrong" 32L v;
  Alcotest.(check bool) "no detection" true (status = Register.Ok);
  Alcotest.(check bool) "oracle sees corruption" true (Register.silently_corrupt r)

let test_register_parity_detects_single () =
  let r = Register.create Register.Parity 0L in
  Register.inject_upset_at r 3;
  let _, status = Register.read r in
  Alcotest.(check bool) "detected" true (status = Register.Fault_detected);
  Alcotest.(check bool) "not silent" false (Register.silently_corrupt r)

let test_register_parity_misses_double () =
  let r = Register.create Register.Parity 0L in
  Register.inject_upset_at r 3;
  Register.inject_upset_at r 7;
  let _, status = Register.read r in
  Alcotest.(check bool) "double flip evades parity" true (status = Register.Ok);
  Alcotest.(check bool) "silent corruption" true (Register.silently_corrupt r)

let test_register_secded_corrects () =
  let r = Register.create Register.Secded 77L in
  Register.inject_upset_at r 13;
  let v, status = Register.read r in
  Alcotest.(check int64) "corrected value" 77L v;
  Alcotest.(check bool) "corrected status" true (status = Register.Corrected);
  (* scrubbed: a second read is clean *)
  let _, status2 = Register.read r in
  Alcotest.(check bool) "scrubbed" true (status2 = Register.Ok)

let test_register_secded_detects_double () =
  let r = Register.create Register.Secded 77L in
  Register.inject_upset_at r 13;
  Register.inject_upset_at r 40;
  let _, status = Register.read r in
  Alcotest.(check bool) "double detected" true (status = Register.Fault_detected)

let test_register_stored_bits () =
  Alcotest.(check int) "plain" 64 (Register.stored_bits (Register.create Register.Plain 0L));
  Alcotest.(check int) "parity" 65 (Register.stored_bits (Register.create Register.Parity 0L));
  Alcotest.(check int) "secded" 72 (Register.stored_bits (Register.create Register.Secded 0L))

let test_register_gate_cost_monotone () =
  Alcotest.(check bool) "plain < parity < secded" true
    (Register.gate_cost Register.Plain < Register.gate_cost Register.Parity
     && Register.gate_cost Register.Parity < Register.gate_cost Register.Secded)

let test_register_upset_counter () =
  let r = Register.create Register.Secded 0L in
  let rng = Rng.create 4L in
  Register.inject_upset r rng;
  Register.inject_upset r rng;
  Alcotest.(check int) "counted" 2 (Register.upsets_injected r)

(* --- Circuit --- *)

let test_majority3_truth_table () =
  for a = 0 to 1 do
    for b = 0 to 1 do
      for c = 0 to 1 do
        let inputs = [| a = 1; b = 1; c = 1 |] in
        let expected = a + b + c >= 2 in
        let out = Circuit.eval Circuit.majority3 inputs in
        Alcotest.(check bool) (Printf.sprintf "maj(%d,%d,%d)" a b c) expected out.(0)
      done
    done
  done

let test_majority5_exhaustive () =
  let m5 = Circuit.majority 5 in
  for pattern = 0 to 31 do
    let inputs = Array.init 5 (fun i -> (pattern lsr i) land 1 = 1) in
    let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 inputs in
    let out = Circuit.eval m5 inputs in
    Alcotest.(check bool) (Printf.sprintf "maj5 pattern %d" pattern) (ones >= 3) out.(0)
  done

let test_majority7_exhaustive () =
  let m7 = Circuit.majority 7 in
  for pattern = 0 to 127 do
    let inputs = Array.init 7 (fun i -> (pattern lsr i) land 1 = 1) in
    let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 inputs in
    let out = Circuit.eval m7 inputs in
    Alcotest.(check bool) (Printf.sprintf "maj7 pattern %d" pattern) (ones >= 4) out.(0)
  done

let test_majority_rejects_even () =
  Alcotest.check_raises "even n" (Invalid_argument "Circuit.majority: n must be odd and positive")
    (fun () -> ignore (Circuit.majority 4))

let test_xor_tree () =
  let x4 = Circuit.xor_tree 4 in
  for pattern = 0 to 15 do
    let inputs = Array.init 4 (fun i -> (pattern lsr i) land 1 = 1) in
    let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 inputs in
    let out = Circuit.eval x4 inputs in
    Alcotest.(check bool) (Printf.sprintf "xor pattern %d" pattern) (ones mod 2 = 1) out.(0)
  done

let test_circuit_validation () =
  Alcotest.check_raises "forward reference"
    (Invalid_argument "Circuit.build: operand must reference an earlier gate") (fun () ->
      ignore (Circuit.build ~n_inputs:1 [| Circuit.Not 1; Circuit.Input 0 |] ~outputs:[| 0 |]))

let test_circuit_no_faults_at_p0 () =
  (* With no flips, lane [l] of the bit-sliced evaluation is the golden
     evaluation of input pattern [l]; all 16 patterns run in one word. *)
  let rng = Rng.create 5L in
  let c = Circuit.random_logic rng ~n_inputs:4 ~n_gates:50 in
  let pattern l = Array.init 4 (fun k -> (l lsr k) land 1 = 1) in
  let inputs = Array.make 4 0 in
  for l = 0 to 15 do
    Array.iteri (fun k b -> if b then inputs.(k) <- inputs.(k) lor (1 lsl l)) (pattern l)
  done;
  let values = Array.make (Circuit.size c) 0 in
  Circuit.eval_words c ~inputs ~flips:(Array.make (Circuit.size c) 0) values;
  let out = (Circuit.outputs c).(0) in
  for l = 0 to 15 do
    Alcotest.(check bool) (Printf.sprintf "pattern %d" l) (Circuit.eval c (pattern l)).(0)
      ((values.(out) lsr l) land 1 = 1)
  done

let test_circuit_gate_count () =
  Alcotest.(check int) "majority3 gates" 5 (Circuit.gate_count Circuit.majority3)

let test_replicate_with_voter_masks () =
  (* A TMR'd buffer where we check correct fault-free behaviour. *)
  let buf = Circuit.build ~n_inputs:1 [| Circuit.Input 0; Circuit.Buf 0 |] ~outputs:[| 1 |] in
  let tmr = Circuit.replicate_with_voter buf 3 in
  Alcotest.(check int) "single output" 1 (Circuit.n_outputs tmr);
  List.iter
    (fun b ->
      let out = Circuit.eval tmr [| b |] in
      Alcotest.(check bool) "identity preserved" b out.(0))
    [ true; false ]

let test_tmr_improves_reliability () =
  (* The module must be large enough that its failure probability dominates
     the voter's own: for tiny modules TMR is voter-limited and loses (a
     real effect, exercised in E1). *)
  let rng = Rng.create 42L in
  let c = Circuit.random_logic rng ~n_inputs:4 ~n_gates:400 in
  let tmr = Circuit.replicate_with_voter c 3 in
  let p_gate = 0.002 in
  let simplex = Redundancy.mc_circuit_correct rng c ~trials:3000 ~p_gate in
  let redundant = Redundancy.mc_circuit_correct rng tmr ~trials:3000 ~p_gate in
  Alcotest.(check bool)
    (Printf.sprintf "tmr (%f) > simplex (%f)" redundant simplex)
    true (redundant > simplex)

let test_tmr_voter_limited_regime () =
  (* Converse of the above: TMR around a trivial module is dominated by the
     voter and does not help. *)
  let rng = Rng.create 43L in
  let buf = Circuit.build ~n_inputs:1 [| Circuit.Input 0; Circuit.Buf 0 |] ~outputs:[| 1 |] in
  let tmr = Circuit.replicate_with_voter buf 3 in
  let p_gate = 0.01 in
  let simplex = Redundancy.mc_circuit_correct rng buf ~trials:5000 ~p_gate in
  let redundant = Redundancy.mc_circuit_correct rng tmr ~trials:5000 ~p_gate in
  Alcotest.(check bool)
    (Printf.sprintf "voter-limited: tmr (%f) <= simplex (%f)" redundant simplex)
    true (redundant <= simplex)

(* --- Redundancy --- *)

let test_binomial () =
  Alcotest.(check (float 1e-9)) "C(5,2)" 10.0 (Redundancy.binomial 5 2);
  Alcotest.(check (float 1e-9)) "C(7,0)" 1.0 (Redundancy.binomial 7 0);
  Alcotest.(check (float 1e-9)) "C(4,5)" 0.0 (Redundancy.binomial 4 5)

let test_tmr_formula () =
  List.iter
    (fun r ->
      let expected = (3.0 *. r *. r) -. (2.0 *. r *. r *. r) in
      Alcotest.(check (float 1e-12)) (Printf.sprintf "r=%f" r) expected (Redundancy.r_tmr r))
    [ 0.0; 0.3; 0.5; 0.9; 0.99; 1.0 ]

let test_tmr_crossover_at_half () =
  (* TMR helps above r=0.5, hurts below: the textbook crossover. *)
  Alcotest.(check bool) "above" true (Redundancy.r_tmr 0.9 > 0.9);
  Alcotest.(check bool) "below" true (Redundancy.r_tmr 0.3 < 0.3);
  Alcotest.(check (float 1e-12)) "at half" 0.5 (Redundancy.r_tmr 0.5)

let test_nmr_monotone_in_n () =
  let r = 0.95 in
  Alcotest.(check bool) "5mr beats tmr at high r" true (Redundancy.r_nmr ~n:5 r > Redundancy.r_nmr ~n:3 r)

let test_nmr_voter_penalty () =
  Alcotest.(check bool) "voter degrades" true
    (Redundancy.r_nmr_with_voter ~n:3 ~voter:0.99 0.95 < Redundancy.r_nmr ~n:3 0.95)

let test_mc_matches_analytic () =
  let rng = Rng.create 17L in
  let p_fail = 0.1 in
  let mc = Redundancy.mc_module_nmr rng ~n:3 ~trials:50000 ~p_fail in
  let analytic = 1.0 -. Redundancy.r_tmr (1.0 -. p_fail) in
  Alcotest.(check bool)
    (Printf.sprintf "mc=%f analytic=%f" mc analytic)
    true
    (Float.abs (mc -. analytic) < 0.005)

(* --- Bit-sliced Monte Carlo --- *)

(* One of the library's circuit shapes, built from [rng]. *)
let random_circuit rng shape =
  match shape with
  | 0 -> Circuit.random_logic rng ~n_inputs:(1 + Rng.int rng 8) ~n_gates:(1 + Rng.int rng 60)
  | 1 -> Circuit.majority ((2 * Rng.int rng 5) + 1)
  | 2 -> Circuit.xor_tree (1 + Rng.int rng 12)
  | _ ->
    let c = Circuit.random_logic rng ~n_inputs:(1 + Rng.int rng 4) ~n_gates:(1 + Rng.int rng 20) in
    Circuit.replicate_with_voter c ((2 * Rng.int rng 3) + 1)

let bit word lane = (word lsr lane) land 1 = 1

(* Lane [l] of [eval_words] must be the scalar evaluation of lane [l]'s
   inputs under lane [l]'s flips; lanes past [active] carry garbage that
   must not matter. *)
let prop_eval_words_matches_scalar =
  QCheck.Test.make ~name:"eval_words lane = eval_flipped" ~count:300
    QCheck.(triple (int_bound 3) (int_range 1 Sys.int_size) int64)
    (fun (shape, active, seed) ->
      let rng = Rng.create seed in
      let c = random_circuit rng shape in
      let inputs = Array.init (Circuit.n_inputs c) (fun _ -> Int64.to_int (Rng.int64 rng)) in
      let density = Rng.pick rng [| 0.0; 0.05; 0.3; 1.0 |] in
      let flips = Array.make (Circuit.size c) 0 in
      Array.iter
        (fun g ->
          for lane = 0 to active - 1 do
            if Rng.bernoulli rng density then flips.(g) <- flips.(g) lor (1 lsl lane)
          done)
        (Circuit.fallible_gates c);
      let values = Array.make (Circuit.size c) 0 in
      Circuit.eval_words c ~inputs ~flips values;
      let outputs = Circuit.outputs c in
      List.for_all
        (fun lane ->
          let scalar =
            Circuit.eval_flipped c
              ~flipped:(fun g -> bit flips.(g) lane)
              (Array.map (fun w -> bit w lane) inputs)
          in
          Array.for_all2 (fun o v -> bit values.(o) lane = v) outputs scalar)
        (List.init active Fun.id))

let xor_chain k = Circuit.xor_tree (k + 1)

let test_mc_endpoints () =
  let rng = Rng.create 21L in
  let c = Circuit.random_logic rng ~n_inputs:6 ~n_gates:200 in
  let tmr = Circuit.replicate_with_voter c 3 in
  List.iter
    (fun circuit ->
      Alcotest.(check (float 0.0)) "p=0 always correct" 1.0
        (Redundancy.mc_circuit_correct rng circuit ~trials:500 ~p_gate:0.0);
      Alcotest.(check (float 0.0)) "p=1e-300 always correct" 1.0
        (Redundancy.mc_circuit_correct rng circuit ~trials:500 ~p_gate:1e-300))
    [ c; tmr ];
  Alcotest.(check (float 0.0)) "nmr p=0 never fails" 0.0
    (Redundancy.mc_module_nmr rng ~n:3 ~trials:500 ~p_fail:0.0);
  Alcotest.(check (float 0.0)) "nmr p=1e-300 never fails" 0.0
    (Redundancy.mc_module_nmr rng ~n:5 ~trials:500 ~p_fail:1e-300);
  (* p = 1 flips every gate: a k-gate XOR chain is right iff k is even. *)
  for k = 1 to 6 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "p=1 xor chain of %d" k)
      (if k mod 2 = 0 then 1.0 else 0.0)
      (Redundancy.mc_circuit_correct rng (xor_chain k) ~trials:100 ~p_gate:1.0)
  done;
  List.iter
    (fun n ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "nmr%d p=1 always fails" n) 1.0
        (Redundancy.mc_module_nmr rng ~n ~trials:100 ~p_fail:1.0))
    [ 1; 3; 5 ]

let test_mc_trial_counts () =
  (* Partial last words must count only their active lanes. *)
  let rng = Rng.create 22L in
  let c = xor_chain 32 in
  List.iter
    (fun trials ->
      List.iter
        (fun p_gate ->
          let count = Redundancy.mc_circuit_correct rng c ~trials ~p_gate *. float_of_int trials in
          Alcotest.(check bool)
            (Printf.sprintf "%d trials at p=%g: %f correct" trials p_gate count)
            true
            (Float.abs (count -. Float.round count) < 1e-6 && Float.round count <= float_of_int trials))
        [ 0.0; 0.01; 0.3; 1.0 ])
    [ 1; 62; 63; 64; 4000 ]

let test_mc_rejects_bad_arguments () =
  let c = xor_chain 4 in
  let rng = Rng.create 23L in
  let bad_p = Invalid_argument "Redundancy.mc_circuit_correct: p_gate must be in [0,1]" in
  List.iter
    (fun p_gate ->
      Alcotest.check_raises (Printf.sprintf "p_gate %g" p_gate) bad_p (fun () ->
          ignore (Redundancy.mc_circuit_correct rng c ~trials:10 ~p_gate)))
    [ Float.nan; -0.1; 1.5 ];
  let bad_p = Invalid_argument "Redundancy.mc_module_nmr: p_fail must be in [0,1]" in
  List.iter
    (fun p_fail ->
      Alcotest.check_raises (Printf.sprintf "p_fail %g" p_fail) bad_p (fun () ->
          ignore (Redundancy.mc_module_nmr rng ~n:3 ~trials:10 ~p_fail)))
    [ Float.nan; -0.1; 1.5 ];
  let bad_n = Invalid_argument "Redundancy.mc_module_nmr: n must be odd and positive" in
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "n=%d" n) bad_n (fun () ->
          ignore (Redundancy.mc_module_nmr rng ~n ~trials:10 ~p_fail:0.1)))
    [ 0; 2; 4; -1 ]

(* An estimate allocates its scratch arrays and result once; a trial
   allocates nothing, so ten times the trials cost the same minor words. *)
let test_mc_allocation_per_estimate () =
  let rng = Rng.create 24L in
  let tmr = Circuit.replicate_with_voter (Circuit.random_logic rng ~n_inputs:8 ~n_gates:60) 3 in
  let words f =
    let before = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. before
  in
  let circuit trials () = Redundancy.mc_circuit_correct rng tmr ~trials ~p_gate:0.01 in
  let nmr trials () = Redundancy.mc_module_nmr rng ~n:3 ~trials ~p_fail:0.1 in
  Alcotest.(check (float 0.0)) "mc_circuit_correct: 100k trials cost what 10k cost"
    (words (circuit 10_000)) (words (circuit 100_000));
  Alcotest.(check (float 0.0)) "mc_module_nmr: 100k trials cost what 10k cost"
    (words (nmr 10_000)) (words (nmr 100_000))

(* Standard score of a Monte-Carlo proportion against its exact value. *)
let z_score ~estimate ~exact ~trials =
  (estimate -. exact) /. sqrt (exact *. (1.0 -. exact) /. float_of_int trials)

let test_mc_xor_chains_closed_form () =
  (* An upset of any gate of an XOR chain flips its output, so the chain is
     right iff an even number of its k gates failed: (1 + (1-2p)^k) / 2. *)
  let trials = 20_000 in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      List.iter
        (fun k ->
          List.iter
            (fun p_gate ->
              let exact = (1.0 +. ((1.0 -. (2.0 *. p_gate)) ** float_of_int k)) /. 2.0 in
              let estimate = Redundancy.mc_circuit_correct rng (xor_chain k) ~trials ~p_gate in
              let z = z_score ~estimate ~exact ~trials in
              Alcotest.(check bool)
                (Printf.sprintf "seed %Ld k=%d p=%g: %.5f vs %.5f (z=%.2f)" seed k p_gate estimate
                   exact z)
                true
                (Float.abs z <= 5.0))
            [ 0.001; 0.005; 0.02 ])
        [ 16; 64; 256 ];
      List.iter
        (fun n ->
          let p_fail = 0.1 in
          let exact = 1.0 -. Redundancy.r_nmr ~n (1.0 -. p_fail) in
          let estimate = Redundancy.mc_module_nmr rng ~n ~trials ~p_fail in
          let z = z_score ~estimate ~exact ~trials in
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld nmr%d: %.5f vs %.5f (z=%.2f)" seed n estimate exact z)
            true
            (Float.abs z <= 5.0))
        [ 3; 5; 7 ])
    [ 1L; 2L; 3L; 4L; 5L ]

(* --- Aging --- *)

let test_weibull_hazard_increasing () =
  let w = { Aging.shape = 3.0; scale = 100.0 } in
  Alcotest.(check bool) "wear-out hazard increases" true (Aging.hazard w 50.0 < Aging.hazard w 150.0)

let test_weibull_hazard_decreasing () =
  let w = { Aging.shape = 0.5; scale = 100.0 } in
  Alcotest.(check bool) "infant hazard decreases" true (Aging.hazard w 10.0 > Aging.hazard w 100.0)

let test_weibull_reliability_bounds () =
  let w = { Aging.shape = 2.0; scale = 100.0 } in
  Alcotest.(check (float 1e-9)) "R(0)=1" 1.0 (Aging.reliability w 0.0);
  Alcotest.(check bool) "decreasing" true (Aging.reliability w 50.0 > Aging.reliability w 200.0)

let test_weibull_mttf_exponential_case () =
  (* shape=1 reduces to exponential: MTTF = scale. *)
  let w = { Aging.shape = 1.0; scale = 250.0 } in
  Alcotest.(check (float 0.01)) "mttf" 250.0 (Aging.mttf w)

let test_mttf_matches_sampling () =
  let w = { Aging.shape = 2.0; scale = 100.0 } in
  let rng = Rng.create 23L in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Aging.sample_lifetime rng w
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "sampled %f vs analytic %f" mean (Aging.mttf w))
    true
    (Float.abs (mean -. Aging.mttf w) < 2.0)

let test_bathtub_shape () =
  let b = Aging.default_bathtub in
  let early = Aging.bathtub_hazard b 1.0e6 in
  let mid = Aging.bathtub_hazard b 5.0e9 in
  let late = Aging.bathtub_hazard b 4.0e10 in
  Alcotest.(check bool) "infant mortality high" true (early > mid);
  Alcotest.(check bool) "wear-out high" true (late > mid)

let test_stress_factor () =
  Alcotest.(check (float 1e-9)) "baseline" 1.0 (Aging.stress_factor ~temperature_c:25.0);
  Alcotest.(check (float 1e-9)) "doubles per 10C" 2.0 (Aging.stress_factor ~temperature_c:35.0)

let test_stress_shortens_life () =
  let b = Aging.default_bathtub in
  let r1 = Rng.create 31L and r2 = Rng.create 31L in
  let normal = Aging.sample_bathtub_lifetime r1 b in
  let hot = Aging.sample_bathtub_lifetime r2 ~stress:4.0 b in
  Alcotest.(check (float 1.0)) "4x stress quarters lifetime" (normal /. 4.0) hot

(* --- Complexity --- *)

let test_complexity_circuit_grows () =
  let p = Complexity.default in
  Alcotest.(check bool) "circuit failure grows" true
    (Complexity.p_fail_circuit p ~complexity:1 < Complexity.p_fail_circuit p ~complexity:50)

let test_complexity_small_favors_circuit () =
  let p = Complexity.default in
  Alcotest.(check bool) "USIG-scale favours circuit" true
    (Complexity.p_fail_circuit p ~complexity:1 < Complexity.p_fail_software_hybrid p ~complexity:1)

let test_complexity_crossover_exists () =
  let p = Complexity.default in
  match Complexity.crossover p ~max_complexity:10000 with
  | None -> Alcotest.fail "expected a crossover"
  | Some c ->
    Alcotest.(check bool) "crossover beyond trivial" true (c > 1);
    (* After the crossover, software hybrid is at least as reliable. *)
    Alcotest.(check bool) "sw wins after crossover" true
      (Complexity.p_fail_software_hybrid p ~complexity:(c + 10)
       <= Complexity.p_fail_circuit p ~complexity:(c + 10))

let test_complexity_sweep_shape () =
  let p = Complexity.default in
  let rows = Complexity.sweep p ~max_complexity:100 ~step:10 in
  Alcotest.(check int) "rows" 11 (List.length rows);
  List.iter
    (fun (_, pc, ps) ->
      Alcotest.(check bool) "probabilities" true (pc >= 0.0 && pc <= 1.0 && ps >= 0.0 && ps <= 1.0))
    rows

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "resoc_hw"
    [
      ( "ecc",
        [
          Alcotest.test_case "roundtrip basic" `Quick test_ecc_roundtrip_basic;
          Alcotest.test_case "single flip all positions" `Quick test_ecc_single_flip_all_positions;
          Alcotest.test_case "double flip detected" `Slow test_ecc_double_flip_detected;
          Alcotest.test_case "flip bounds" `Quick test_ecc_flip_bounds;
          Alcotest.test_case "flip involutive" `Quick test_ecc_flip_involutive;
          Alcotest.test_case "matches bit-serial reference" `Quick
            test_ecc_matches_reference_flips;
        ] );
      qsuite "ecc-prop"
        [ prop_ecc_roundtrip; prop_ecc_corrects_any_single_flip; prop_ecc_matches_reference ];
      ( "register",
        [
          Alcotest.test_case "write read" `Quick test_register_write_read;
          Alcotest.test_case "plain silent corruption" `Quick test_register_plain_silent;
          Alcotest.test_case "parity detects single" `Quick test_register_parity_detects_single;
          Alcotest.test_case "parity misses double" `Quick test_register_parity_misses_double;
          Alcotest.test_case "secded corrects + scrubs" `Quick test_register_secded_corrects;
          Alcotest.test_case "secded detects double" `Quick test_register_secded_detects_double;
          Alcotest.test_case "stored bits" `Quick test_register_stored_bits;
          Alcotest.test_case "gate cost monotone" `Quick test_register_gate_cost_monotone;
          Alcotest.test_case "upset counter" `Quick test_register_upset_counter;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "majority3 truth table" `Quick test_majority3_truth_table;
          Alcotest.test_case "majority5 exhaustive" `Quick test_majority5_exhaustive;
          Alcotest.test_case "majority7 exhaustive" `Quick test_majority7_exhaustive;
          Alcotest.test_case "majority rejects even" `Quick test_majority_rejects_even;
          Alcotest.test_case "xor tree" `Quick test_xor_tree;
          Alcotest.test_case "validation" `Quick test_circuit_validation;
          Alcotest.test_case "p=0 equals golden" `Quick test_circuit_no_faults_at_p0;
          Alcotest.test_case "gate count" `Quick test_circuit_gate_count;
          Alcotest.test_case "voter wiring" `Quick test_replicate_with_voter_masks;
          Alcotest.test_case "tmr improves reliability" `Slow test_tmr_improves_reliability;
          Alcotest.test_case "tmr voter-limited regime" `Slow test_tmr_voter_limited_regime;
        ] );
      ( "redundancy",
        [
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "tmr formula" `Quick test_tmr_formula;
          Alcotest.test_case "tmr crossover at 1/2" `Quick test_tmr_crossover_at_half;
          Alcotest.test_case "nmr monotone" `Quick test_nmr_monotone_in_n;
          Alcotest.test_case "voter penalty" `Quick test_nmr_voter_penalty;
          Alcotest.test_case "monte carlo matches analytic" `Slow test_mc_matches_analytic;
          Alcotest.test_case "mc endpoints" `Quick test_mc_endpoints;
          Alcotest.test_case "mc trial counts" `Quick test_mc_trial_counts;
          Alcotest.test_case "mc rejects bad arguments" `Quick test_mc_rejects_bad_arguments;
          Alcotest.test_case "mc allocation per estimate" `Quick test_mc_allocation_per_estimate;
          Alcotest.test_case "mc xor chains closed form" `Slow test_mc_xor_chains_closed_form;
        ] );
      qsuite "bitslice-prop" [ prop_eval_words_matches_scalar ];
      ( "aging",
        [
          Alcotest.test_case "hazard increasing" `Quick test_weibull_hazard_increasing;
          Alcotest.test_case "hazard decreasing" `Quick test_weibull_hazard_decreasing;
          Alcotest.test_case "reliability bounds" `Quick test_weibull_reliability_bounds;
          Alcotest.test_case "mttf exponential case" `Quick test_weibull_mttf_exponential_case;
          Alcotest.test_case "mttf matches sampling" `Slow test_mttf_matches_sampling;
          Alcotest.test_case "bathtub shape" `Quick test_bathtub_shape;
          Alcotest.test_case "stress factor" `Quick test_stress_factor;
          Alcotest.test_case "stress shortens life" `Quick test_stress_shortens_life;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "circuit failure grows" `Quick test_complexity_circuit_grows;
          Alcotest.test_case "small favours circuit" `Quick test_complexity_small_favors_circuit;
          Alcotest.test_case "crossover exists" `Quick test_complexity_crossover_exists;
          Alcotest.test_case "sweep shape" `Quick test_complexity_sweep_shape;
        ] );
    ]
