(* CheapBFT: f+1 active replicas + f passive ones on TrInc attestations,
   with transition to the full group on suspicion. *)

open Resoc_repl
module Engine = Resoc_des.Engine
module Behavior = Resoc_fault.Behavior
module Trinc = Resoc_hybrid.Trinc

let horizon = 300_000

let setup ?(f = 1) ?(n_clients = 1) ?behaviors () =
  let engine = Engine.create () in
  let config = { Cheapbft.default_config with f; n_clients } in
  let n = Cheapbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + n_clients) () in
  let sys = Cheapbft.start engine fabric config ?behaviors () in
  (engine, sys, fabric, n)

let submit_series sys ~count =
  for i = 1 to count do
    Cheapbft.submit sys ~client:0 ~payload:(Int64.of_int i)
  done

let sum_1_to n = Int64.of_int (n * (n + 1) / 2)

let test_sizes () =
  let config = { Cheapbft.default_config with f = 2 } in
  Alcotest.(check int) "2f+1 total" 5 (Cheapbft.n_replicas config);
  Alcotest.(check int) "f+1 active" 3 (Cheapbft.n_active_initial config)

let test_happy_path_stays_cheap () =
  let engine, sys, _, _ = setup () in
  submit_series sys ~count:5;
  Engine.run ~until:horizon engine;
  let s = Cheapbft.stats sys in
  Alcotest.(check int) "completed" 5 s.Stats.completed;
  Alcotest.(check bool) "no transition in the fault-free case" false (Cheapbft.transitioned sys);
  Alcotest.(check bool) "replica 2 stayed passive" false (Cheapbft.active sys ~replica:2);
  (* actives agree on the executed state *)
  Alcotest.(check int64) "actives agree" (Cheapbft.replica_state sys ~replica:0)
    (Cheapbft.replica_state sys ~replica:1);
  Alcotest.(check int64) "value" (sum_1_to 5) (Cheapbft.replica_state sys ~replica:0)

let test_passive_receives_updates () =
  let engine, sys, _, _ = setup () in
  submit_series sys ~count:5;
  Engine.run ~until:horizon engine;
  (* The passive replica converges through shipped updates, without
     executing the requests itself. *)
  Alcotest.(check int64) "passive synced" (sum_1_to 5) (Cheapbft.replica_state sys ~replica:2)

let test_cheaper_than_minbft_fault_free () =
  let run_cheap () =
    let engine, sys, fabric, _ = setup () in
    submit_series sys ~count:10;
    Engine.run ~until:horizon engine;
    ((Cheapbft.stats sys).Stats.completed, fabric.Transport.messages_sent ())
  in
  let run_minbft () =
    let engine = Engine.create () in
    let config = { Minbft.default_config with f = 1; n_clients = 1 } in
    let fabric = Transport.hub engine ~n:4 () in
    let sys = Minbft.start engine fabric config () in
    for i = 1 to 10 do
      Minbft.submit sys ~client:0 ~payload:(Int64.of_int i)
    done;
    Engine.run ~until:horizon engine;
    ((Minbft.stats sys).Stats.completed, fabric.Transport.messages_sent ())
  in
  let cheap_done, cheap_msgs = run_cheap () in
  let min_done, min_msgs = run_minbft () in
  Alcotest.(check int) "cheap completed" 10 cheap_done;
  Alcotest.(check int) "minbft completed" 10 min_done;
  Alcotest.(check bool)
    (Printf.sprintf "cheapbft %d < minbft %d messages" cheap_msgs min_msgs)
    true (cheap_msgs < min_msgs)

let test_active_crash_triggers_transition () =
  (* Losing an active replica stalls the all-active quorum: the group
     transitions, activating the passive replica, and finishes the work. *)
  let behaviors = [| Behavior.honest; Behavior.crash_at 10_000; Behavior.honest |] in
  let engine, sys, _, _ = setup ~behaviors () in
  submit_series sys ~count:3;
  ignore (Engine.schedule engine ~delay:20_000 (fun () -> submit_series sys ~count:3));
  Engine.run ~until:horizon engine;
  let s = Cheapbft.stats sys in
  Alcotest.(check int) "all eventually served" 6 s.Stats.completed;
  Alcotest.(check bool) "transitioned" true (Cheapbft.transitioned sys);
  Alcotest.(check bool) "passive activated" true (Cheapbft.active sys ~replica:2);
  Alcotest.(check int64) "survivors agree" (Cheapbft.replica_state sys ~replica:0)
    (Cheapbft.replica_state sys ~replica:2)

let test_primary_crash_recovers () =
  let behaviors = [| Behavior.crash_at 10; Behavior.honest; Behavior.honest |] in
  let engine, sys, _, _ = setup ~behaviors () in
  submit_series sys ~count:5;
  Engine.run ~until:horizon engine;
  let s = Cheapbft.stats sys in
  Alcotest.(check int) "completed" 5 s.Stats.completed;
  Alcotest.(check bool) "transitioned" true (Cheapbft.transitioned sys);
  Alcotest.(check bool) "view rotated" true (Cheapbft.view sys ~replica:1 >= 1)

let test_trinc_attestations_issued () =
  let engine, sys, _, _ = setup () in
  submit_series sys ~count:4;
  Engine.run ~until:horizon engine;
  Alcotest.(check bool) "primary attested each request" true
    (Trinc.attestations_issued (Cheapbft.trinc sys ~replica:0) >= 4);
  Alcotest.(check bool) "active backup attested commits" true
    (Trinc.attestations_issued (Cheapbft.trinc sys ~replica:1) >= 4);
  Alcotest.(check int) "passive attested nothing" 0
    (Trinc.attestations_issued (Cheapbft.trinc sys ~replica:2))

let test_corrupt_active_filtered () =
  let behaviors =
    [| Behavior.honest; Behavior.byzantine Behavior.Corrupt_execution; Behavior.honest |]
  in
  let engine, sys, _, _ = setup ~behaviors () in
  submit_series sys ~count:3;
  Engine.run ~until:horizon engine;
  let s = Cheapbft.stats sys in
  (* The corrupt active's replies never match the honest one, so the f+1
     quorum cannot form from {honest, corrupt}. The passive replica —
     kept current by the attested updates — answers the retransmission from
     its reply cache and completes the quorum WITHOUT a transition: the
     update channel doubles as a cheap tie-breaker. *)
  Alcotest.(check int) "eventually completed" 3 s.Stats.completed;
  Alcotest.(check bool) "dissent recorded" true (s.Stats.wrong_replies >= 1);
  Alcotest.(check bool) "retransmissions forced" true (s.Stats.retransmissions >= 1);
  Alcotest.(check bool) "passive cache resolved it without transition" true
    (not (Cheapbft.transitioned sys))

let test_f2_configuration () =
  let behaviors = Array.make 5 Behavior.honest in
  behaviors.(1) <- Behavior.crash_at 5_000;
  behaviors.(3) <- Behavior.crash_at 0;  (* one passive dead from the start *)
  let engine, sys, _, _ = setup ~f:2 ~behaviors () in
  submit_series sys ~count:4;
  ignore (Engine.schedule engine ~delay:20_000 (fun () -> submit_series sys ~count:2));
  Engine.run ~until:horizon engine;
  let s = Cheapbft.stats sys in
  Alcotest.(check int) "completed with 2 crashes (f=2)" 6 s.Stats.completed

let test_rejuvenation_needs_checkpointing () =
  (* Without checkpointing a wiped replica has no state source. *)
  let _, sys, _, _ = setup () in
  Alcotest.check_raises "set_offline"
    (Invalid_argument "Cheapbft.set_offline: needs config.checkpoint") (fun () ->
      Cheapbft.set_offline sys ~replica:1);
  Alcotest.check_raises "set_online"
    (Invalid_argument "Cheapbft.set_online: needs config.checkpoint") (fun () ->
      Cheapbft.set_online sys ~replica:1);
  Alcotest.(check bool) "still online" true (Cheapbft.replica_online sys ~replica:1)

let () =
  Alcotest.run "resoc_cheapbft"
    [
      ( "cheapbft",
        [
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "happy path stays cheap" `Quick test_happy_path_stays_cheap;
          Alcotest.test_case "passive receives updates" `Quick test_passive_receives_updates;
          Alcotest.test_case "cheaper than minbft fault-free" `Quick test_cheaper_than_minbft_fault_free;
          Alcotest.test_case "active crash triggers transition" `Quick
            test_active_crash_triggers_transition;
          Alcotest.test_case "primary crash recovers" `Quick test_primary_crash_recovers;
          Alcotest.test_case "trinc attestations issued" `Quick test_trinc_attestations_issued;
          Alcotest.test_case "corrupt active filtered" `Quick test_corrupt_active_filtered;
          Alcotest.test_case "f=2 configuration" `Quick test_f2_configuration;
          Alcotest.test_case "rejuvenation needs checkpointing" `Quick
            test_rejuvenation_needs_checkpointing;
        ] );
    ]
