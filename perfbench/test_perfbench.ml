(* The benchmark's own tests: calibrated-seconds arithmetic, the tail
   percentile choice, span self-time subtraction, the closed-form
   references, and that its hand-built protocol groups behave exactly like
   Resoc_core.Group.build, traced or not. *)

open Perfbench
module Engine = Resoc_des.Engine
module Stats = Resoc_repl.Stats
module Histogram = Resoc_des.Metrics.Histogram
module Group = Resoc_core.Group
module Soc = Resoc_core.Soc
module Circuit = Resoc_hw.Circuit

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close ?(eps = 1e-12) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs b)

let test_calibration () =
  check "factor" (close (Calib.factor ~c_ref:0.05 ~c_run:0.04) 1.25);
  (* 1.2 raw seconds on a host whose reference loop takes 0.06 s instead
     of 0.05 s is 1.0 calibrated second. *)
  check "calibrated: slower host reads the same" (close (1.2 *. Calib.factor ~c_ref:0.05 ~c_run:0.06) 1.0);
  check "calibrated: reference host is identity" (Calib.factor ~c_ref:0.05 ~c_run:0.05 = 1.0);
  check "reference loop result is fixed" (Calib.reference_work () = Calib.reference_work ());
  check "reference loop takes time" (Calib.measure () > 0.0)

let test_tail () =
  let samples n = Array.init n (fun i -> float_of_int (n - i)) in
  let level n = fst (Pstats.tail (samples n)) in
  check "100 samples -> p90" (level 100 = 90.0);
  check "1000 samples -> p99" (level 1000 = 99.0);
  check "20 samples -> median" (level 20 = 50.0);
  check "10000 samples -> p99.9" (level 10000 = 99.9);
  List.iter
    (fun n ->
      let l = level n in
      check (Printf.sprintf "%d: at least 10 beyond" n) (l = 50.0 || Pstats.beyond ~n l >= 10);
      (* and the next level up has fewer than 10 *)
      match List.filter (fun p -> p > l) Pstats.tail_levels with
      | [] -> ()
      | higher ->
        let next = List.fold_left Float.min infinity higher in
        check (Printf.sprintf "%d: highest such level" n) (Pstats.beyond ~n next < 10))
    [ 11; 21; 40; 99; 100; 101; 250; 999; 1000; 5000 ];
  check "tail value is the nearest-rank sample" (snd (Pstats.tail (samples 100)) = 90.0);
  check "median even" (Pstats.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  check "percentile nearest rank" (Pstats.percentile [| 1.0; 2.0 |] 50.0 = 1.0)

let test_span_self_time () =
  (* root [0,10] > a [1,6] > b [2,3], c [4,5]; root > d [7,9] *)
  let r = Spans.create () in
  let enter name id t = Spans.enter_at r name id t 0.0 in
  let leave t = Spans.leave_at r t 0.0 in
  enter Spans.pass 0 0.0;
  enter Spans.repl_handler 1 1.0;
  enter Spans.noc_send 2 2.0;
  leave 3.0;
  enter Spans.noc_send 3 4.0;
  leave 5.0;
  leave 6.0;
  enter Spans.repl_handler 4 7.0;
  leave 9.0;
  leave 10.0;
  check "logged parents"
    (r.Spans.logged = 5
    && Array.sub r.Spans.l_parent 0 5 = [| -1; 0; 1; 1; 0 |]
    && r.Spans.l_t1.(2) = 3.0);
  let s = r.Spans.summary in
  check "root self" (close s.Spans.self.(Spans.pass) 3.0);
  check "handler total" (close s.Spans.total.(Spans.repl_handler) 7.0);
  check "handler self" (close s.Spans.self.(Spans.repl_handler) 5.0);
  check "send self" (close s.Spans.self.(Spans.noc_send) 2.0);
  check "calls" (s.Spans.calls.(Spans.repl_handler) = 2 && s.Spans.calls.(Spans.noc_send) = 2);
  let self_sum = Array.fold_left ( +. ) 0.0 s.Spans.self in
  check "self times add up to the root" (close self_sum 10.0)

let test_closed_forms () =
  let p = 0.03 in
  check "xor k=1" (close (Closed_form.xor_chain_correct ~gates:1 ~p_gate:p) (1.0 -. p));
  check "xor k=2" (close (Closed_form.xor_chain_correct ~gates:2 ~p_gate:p) (((1.0 -. p) ** 2.0) +. (p *. p)));
  (* against the even-failure binomial sum *)
  let k = 9 in
  let even = ref 0.0 in
  for j = 0 to k do
    if j mod 2 = 0 then
      even := !even +. (Resoc_hw.Redundancy.binomial k j *. (p ** float_of_int j) *. ((1.0 -. p) ** float_of_int (k - j)))
  done;
  check "xor k=9 binomial" (close ~eps:1e-9 (Closed_form.xor_chain_correct ~gates:k ~p_gate:p) !even);
  check "nmr n=1" (close ~eps:1e-9 (Closed_form.nmr_failure ~n:1 ~p_fail:p) p);
  check "nmr n=3" (close ~eps:1e-9 (Closed_form.nmr_failure ~n:3 ~p_fail:p) ((3.0 *. p *. p) -. (2.0 *. p *. p *. p)));
  check "z-score" (close (Closed_form.z_score ~estimate:0.6 ~exact:0.5 ~trials:100) 2.0);
  (* xor_chain computes parity with k gates *)
  let c = W_gate.xor_chain 5 in
  check "chain gates" (Circuit.gate_count c = 5);
  let ok = ref true in
  for v = 0 to 63 do
    let inputs = Array.init 6 (fun i -> (v lsr i) land 1 = 1) in
    let parity = Array.fold_left (fun acc b -> acc <> b) false inputs in
    if (Circuit.eval c inputs).(0) <> parity then ok := false
  done;
  check "chain parity" !ok

(* Kit.build must reproduce Group.build exactly — same messages, bytes,
   events and latencies — with and without tracing. *)
let run_group ~soc_cfg ~batching proto mode =
  let n_clients = 3 in
  let submit_all submit =
    for client = 0 to n_clients - 1 do
      for i = 1 to 12 do
        submit ~client ~payload:(Int64.of_int i)
      done
    done
  in
  let engine, transport, soc =
    match soc_cfg with
    | Some cfg ->
      let soc = Soc.create cfg in
      (Soc.engine soc, `Soc soc, Some soc)
    | None -> (Engine.create ~seed:42L (), `Hub, None)
  in
  ignore soc;
  let stats, messages, bytes =
    match mode with
    | `Group ->
      let kind = match transport with `Soc soc -> Group.On_soc soc | `Hub -> Group.Hub { latency = 5 } in
      let g =
        Group.build engine kind { Group.default_spec with kind = (proto :> [ `Pbft | `Minbft | `A2m_bft | `Cheapbft | `Paxos | `Primary_backup ]); n_clients; batching }
      in
      submit_all g.Group.submit;
      Engine.run ~until:400_000 engine;
      (g.Group.stats (), g.Group.messages (), g.Group.bytes ())
    | `Kit traced ->
      Spans.on := traced;
      let t = match transport with `Soc soc -> Kit.Noc soc | `Hub -> Kit.Hub { latency = 5 } in
      let g = Kit.build ?batching engine t proto ~n_clients ~open_loop:false in
      submit_all g.Kit.submit;
      Kit.run ~until:400_000 engine;
      Spans.on := false;
      let lat = Kit.Ints.to_floats g.Kit.tracker.Kit.latencies in
      let h = g.Kit.stats.Stats.latency in
      check "kit latencies = Stats.latency"
        (Histogram.count h = Array.length lat
        && (lat = [||] || Histogram.percentile h 99.0 = Pstats.percentile lat 99.0));
      (g.Kit.stats, g.Kit.messages (), g.Kit.bytes ())
  in
  ( stats.Stats.completed,
    messages,
    bytes,
    Engine.events_processed engine,
    Histogram.mean stats.Stats.latency,
    Histogram.percentile stats.Stats.latency 99.0 )

let test_kit_matches_group () =
  let batch = Some { Resoc_repl.Types.window_cycles = 50; max_batch = 8; pipeline_depth = 4 } in
  List.iter
    (fun (proto : Kit.proto) ->
      List.iter
        (fun (where, soc_cfg, batching) ->
          let reference = run_group ~soc_cfg ~batching proto `Group in
          let name = Kit.proto_name proto ^ "/" ^ where in
          let completed, _, _, _, _, _ = reference in
          check (name ^ ": completes") (completed = 36);
          check (name ^ ": untraced kit = Group.build") (run_group ~soc_cfg ~batching proto (`Kit false) = reference);
          check (name ^ ": traced kit = Group.build") (run_group ~soc_cfg ~batching proto (`Kit true) = reference))
        [
          ("hub", None, None);
          ("hub-batch", None, batch);
          ("soc", Some { Soc.default_config with seed = 9L }, None);
          ("soc-batch", Some { Soc.default_config with seed = 9L }, batch);
        ])
    [ `Pbft; `Minbft; `Cheapbft; `Paxos; `Primary_backup ];
  Spans.reset ()

let test_metric_names () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let mentions s =
    let n = String.length s in
    let rec go i = i + n <= String.length text && (String.sub text i n = s || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (name, unit) ->
      check ("BENCHMARK.json lists " ^ name)
        (mentions (Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\"" name unit)))
    (Metrics_def.end_to_end @ Metrics_def.per_layer);
  List.iter (fun w -> check ("BENCHMARK.json lists " ^ w) (mentions (Printf.sprintf "{\"name\": \"%s\"" w))) Metrics_def.workloads

let () =
  test_calibration ();
  test_tail ();
  test_span_self_time ();
  test_closed_forms ();
  test_kit_matches_group ();
  test_metric_names ();
  if !failures > 0 then begin
    Printf.printf "%d perfbench test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "perfbench tests: ok"
