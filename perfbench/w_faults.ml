(* checked-faults: a Resoc_campaign campaign with the invariant checker
   and Obs metrics on, over three kinds of cell:
   - E2 shape: MinBFT with a SECDED USIG under SEUs, scrubbed every 250
     cycles, on the hub;
   - E10 shape: every protocol family with checkpoint certificates under
     periodic rejuvenation, so each rejoining replica fetches certified
     state over the NoC;
   - E11 part C shape: PBFT and MinBFT on a 4x4 mesh with adaptive
     routing under Poisson link upsets and Weibull wear-out.
   The only workload where fault, check, obs, campaign, resilience,
   checkpoint and adaptive routing do real work. Each trial builds its own
   system (inside the timed phase, on its worker domain); that
   construction time is counted into set-up time. *)

module Engine = Resoc_des.Engine
module Soc = Resoc_core.Soc
module Stats = Resoc_repl.Stats
module Campaign = Resoc_campaign.Campaign
module Check = Resoc_check.Check
module Inject = Resoc_check.Inject
module Obs = Resoc_obs.Obs
module Network = Resoc_noc.Network

let replicates = 6
let horizon = 100_000
let tail = 10_000  (* arrivals stop at the horizon; in-flight requests get this long *)
let workload_period = 500  (* per client *)
let clients = 2

type shape =
  | Seu_usig of float  (* SEU rate per bit-cycle *)
  | Rejuvenation of Kit.proto
  | Link_faults of Kit.proto

let shapes =
  [ Seu_usig 1e-6; Seu_usig 4e-6 ]
  @ List.map (fun p -> Rejuvenation p) [ `Pbft; `Minbft; `Cheapbft; `Paxos; `Primary_backup ]
  @ List.map (fun p -> Link_faults p) [ `Pbft; `Minbft ]

let shape_id = function
  | Seu_usig r -> Printf.sprintf "seu/%g" r
  | Rejuvenation p -> "rejuv/" ^ Kit.proto_name p
  | Link_faults p -> "links/" ^ Kit.proto_name p

(* Cells repeated to give a shape more trials: SEU-induced view changes and
   link faults near a replica are rare events, and their share of requests
   only repeats across seeds over many trials. Rejuvenation cells are
   deterministic (periodic load, periodic restarts), so one copy is
   enough. *)
let copies = function
  | Seu_usig _ | Link_faults `Minbft -> 5
  | Rejuvenation _ -> 1
  (* At E11's upset rate PBFT falls into a view-change storm in about one
     trial in 25 (84 to 190 view changes, 5x the messages and host time).
     With 30 trials, how many storms a seed holds set this workload's wall
     time (10% spread over seeds); with 6, most seeds hold none and the
     storms still show, in repl.view_changes. *)
  | Link_faults _ -> 1

(* The campaign runs as one Campaign.run per kind of cell (SEU,
   rejuvenation, link faults), so the host calibrator can run between
   them. [groups] lists each one's (shape, cell id) pairs in campaign
   order. *)
let kind = function Seu_usig _ -> 0 | Rejuvenation _ -> 1 | Link_faults _ -> 2

let groups =
  List.map
    (fun k ->
      List.concat_map
        (fun shape ->
          if kind shape <> k then []
          else List.init (copies shape) (fun c -> (shape, Printf.sprintf "%s#%d" (shape_id shape) c)))
        shapes)
    [ 0; 1; 2 ]

let cell_ids = List.concat groups

let ckpt = { Resoc_repl.Checkpoint.interval = 32; window = 8; chunk = 8 }

(* Host-side data per trial, kept out of the trial's metrics so that the
   campaign's (simulated) outputs stay host-independent. *)
type host = { setup_s : float; trial_s : float; latencies : float array }

let host_table : (string * int64, host) Hashtbl.t = Hashtbl.create 64
let host_lock = Mutex.create ()

let periodic engine (g : Kit.group) =
  Engine.every engine ~period:workload_period (fun () ->
      if Engine.now engine < horizon then
        for client = 0 to clients - 1 do
          g.Kit.submit ~client ~payload:(Int64.of_int (Engine.now engine))
        done)

(* Build one trial's system; returns the group, its engine and a closure
   reading the fault/resilience counters at the end. *)
let build shape ~seed =
  let fault_start f = Spans.span Spans.fault_start 0 f in
  match shape with
  | Seu_usig rate ->
    let engine = Engine.create ~seed:(Gen.derive seed [ 0 ]) () in
    let g = Kit.build engine (Kit.Hub { latency = 5 }) `Minbft ~n_clients:clients ~open_loop:true in
    let registers = g.Kit.usig_registers in
    let seu =
      fault_start (fun () ->
          Resoc_fault.Seu.start engine
            (Resoc_des.Rng.create (Gen.derive seed [ 1 ]))
            ~rate_per_bit_cycle:rate registers)
    in
    Engine.every engine ~period:250 (fun () -> Array.iter Resoc_hw.Register.scrub registers);
    (engine, g, None, fun () -> [ ("seu", float_of_int (Resoc_fault.Seu.injected seu)) ])
  | Rejuvenation proto ->
    let soc =
      Spans.span Spans.core_soc_create 0 (fun () ->
          Soc.create { Soc.default_config with seed = Gen.derive seed [ 0 ] })
    in
    let engine = Soc.engine soc in
    let g =
      Kit.build ~checkpoint:ckpt engine (Kit.Noc soc) proto ~n_clients:clients ~open_loop:true
    in
    let mgr =
      Spans.span Spans.resilience_start 0 (fun () ->
          Resoc_resilience.Rejuvenation.start engine
            { Resoc_resilience.Rejuvenation.period = 10_000; downtime = 1_000 }
            {
              Resoc_resilience.Rejuvenation.n_replicas = g.Kit.n;
              take_offline = g.Kit.set_offline;
              bring_online = g.Kit.set_online;
              choose_variant = (fun _ -> 0);
              on_restart = (fun ~replica:_ ~variant:_ -> ());
            })
    in
    ( engine,
      g,
      Some soc,
      fun () ->
        [ ("rejuvenations", float_of_int (Resoc_resilience.Rejuvenation.rejuvenations mgr)) ] )
  | Link_faults proto ->
    let noc = { Network.default_config with routing = Network.Adaptive } in
    let soc =
      Spans.span Spans.core_soc_create 0 (fun () ->
          Soc.create { Soc.default_config with seed = Gen.derive seed [ 0 ]; noc })
    in
    let partitions = ref 0 in
    Soc.set_on_partition soc (fun ~reachable ~total -> if reachable < total then incr partitions);
    let engine = Soc.engine soc in
    let g = Kit.build engine (Kit.Noc soc) proto ~n_clients:clients ~open_loop:true in
    let lf =
      fault_start (fun () ->
          Resoc_fault.Link_fault.start engine
            (Resoc_des.Rng.create (Gen.derive seed [ 1 ]))
            (Soc.mesh soc)
            {
              Resoc_fault.Link_fault.upset_rate = 2e-5;
              upset_repair_mean = 2_500.0;
              wearout_shape = 2.0;
              wearout_scale = 400_000.0;
            })
    in
    ( engine,
      g,
      Some soc,
      fun () ->
        Resoc_fault.Link_fault.halt lf;
        [
          ("link_upsets", float_of_int (Resoc_fault.Link_fault.upsets lf));
          ("link_wearouts", float_of_int (Resoc_fault.Link_fault.wearouts lf));
          ("partitions", float_of_int !partitions);
        ] )

let trial ?(cell = "") shape ~seed =
  let t0 = Unix.gettimeofday () in
  let (engine, g, soc, faults), setup_s = Outcome.timed (fun () -> build shape ~seed) in
  periodic engine g;
  Kit.run ~until:(horizon + tail) engine;
  let extra = faults () in
  let hooks = Check.hooks_fired () in
  let r = W_req.result (shape_id shape) engine g ~cycles:horizon in
  let s = r.W_req.stats in
  let host = { setup_s; trial_s = Unix.gettimeofday () -. t0; latencies = r.W_req.latencies } in
  Mutex.protect host_lock (fun () -> Hashtbl.replace host_table (cell, seed) host);
  [
    ("submitted", float_of_int r.W_req.submitted);
    ("completed", float_of_int r.W_req.completed);
    ("messages", float_of_int r.W_req.messages);
    ("bytes", float_of_int r.W_req.bytes);
    ("events", float_of_int r.W_req.events);
    ("wrong_replies", float_of_int s.Stats.wrong_replies);
    ("retransmissions", float_of_int s.Stats.retransmissions);
    ("view_changes", float_of_int s.Stats.view_changes);
    ("checkpoints", float_of_int s.Stats.checkpoints);
    ("state_transfers", float_of_int s.Stats.state_transfers);
    ("transfer_bytes", float_of_int s.Stats.transfer_bytes);
    ("noc_dropped", float_of_int (match soc with Some soc -> Soc.noc_dropped soc | None -> 0));
    ("check_hooks", float_of_int hooks);
  ]
  @ extra

let cells group =
  List.map
    (fun (shape, cell) ->
      Campaign.cell cell (fun ~seed ->
          Spans.span Spans.campaign_trial 0 (fun () -> trial ~cell shape ~seed)))
    group

(* Turn the checker and Obs metrics on or off for systems built next. *)
let set_modes ~check ~metrics =
  if check then Check.enable () else Check.disable ();
  if metrics then Obs.enable_metrics () else Obs.disable ()

let root_seed seed g = Gen.derive seed [ 7; g ]

let campaign ~seed ~jobs g group =
  set_modes ~check:true ~metrics:true;
  let config = { Campaign.default_config with root_seed = root_seed seed g; replicates; jobs; check = true } in
  let result, wall =
    Outcome.timed (fun () ->
        Spans.span Spans.campaign_run g (fun () ->
            Campaign.run ~config ~id:"checked-faults" ~title:"checked faults" (cells group)))
  in
  set_modes ~check:false ~metrics:false;
  (result, wall)

let metric m k = match List.assoc_opt k m with Some v -> v | None -> 0.0

let finish ~jobs runs =
  let wall = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 runs in
  let lines = ref [] and failures = ref [] in
  let trials = ref [] in
  let violations = ref 0 in
  List.iter
    (fun (agg : Campaign.aggregate) ->
      Array.iteri
        (fun i trial ->
          let seed = agg.Campaign.seeds.(i) in
          let label = Printf.sprintf "%s/%d" agg.Campaign.cell_id i in
          match trial with
          | Campaign.Completed m ->
            let host = Mutex.protect host_lock (fun () -> Hashtbl.find host_table (agg.Campaign.cell_id, seed)) in
            let shape = shape_id (fst (List.find (fun (_, c) -> c = agg.Campaign.cell_id) cell_ids)) in
            trials := (shape, m, host) :: !trials;
            lines :=
              String.concat " "
                ((label :: List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) m)
                @ [ W_req.latency_digest host.latencies ])
              :: !lines
            (* Wrong replies are measured, not failures, on this workload:
               under link faults a view change can leave a client a reply
               that disagrees with its quorum (see README.md). *)
          | Campaign.Failed f ->
            (* Check.Violation prints as "invariant violation: ..." *)
            if String.starts_with ~prefix:"invariant violation" f.Resoc_campaign.Pool.error then
              incr violations;
            lines := (label ^ " FAILED") :: !lines;
            failures := Printf.sprintf "%s: %s" label f.Resoc_campaign.Pool.error :: !failures)
        agg.Campaign.trials)
    (List.concat_map (fun (result, _) -> result.Campaign.cells) runs);
  let trials = List.rev !trials in
  let total k = List.fold_left (fun acc (_, m, _) -> acc +. metric m k) 0.0 trials in
  (* Pooled over all requests, these figures would be lotteries over
     seeds: rare view-change storms (PBFT under link upsets: one trial in
     tens sends ~5x the usual messages at ~10x the latency) dominate the
     tail and the message count, and the pooled median sits on the edge
     between the hub cells (~20 cycles) and the NoC cells (~100 cycles),
     which hold about half the requests each. Latency percentiles and
     msgs_per_req therefore take each shape's median trial and average
     over shapes; the storms show in repl.view_changes and
     repl.retransmissions. *)
  let percentile a p = if a = [||] then 0.0 else Pstats.percentile a p in
  let over_cells f =
    let per_cell =
      List.filter_map
        (fun shape ->
          let vs =
            List.filter_map
              (fun (id, m, h) -> if id = shape_id shape then Some (f m h) else None)
              trials
          in
          if vs = [] then None else Some (Pstats.median (Array.of_list vs)))
        shapes
    in
    List.fold_left ( +. ) 0.0 per_cell /. float_of_int (max 1 (List.length per_cell))
  in
  let n_trials = List.length cell_ids * replicates in
  let trial_s = List.fold_left (fun acc (_, _, h) -> acc +. h.trial_s) 0.0 trials in
  let completed = total "completed" and submitted = total "submitted" in
  let rtx = total "retransmissions" in
  {
    Outcome.units = n_trials;
    replicate_s = Array.of_list (List.map (fun (_, _, h) -> h.trial_s) trials);
    inner_setup_s = List.fold_left (fun acc (_, _, h) -> acc +. h.setup_s) 0.0 trials;
    sim =
      [
        ("sim_p50_cycles", over_cells (fun _ h -> percentile h.latencies 50.0));
        ("sim_p99_cycles", over_cells (fun _ h -> percentile h.latencies 99.0));
        ("sim_throughput", 1000.0 *. completed /. float_of_int (List.length trials * horizon));
        ("sim_completed_ratio", completed /. Float.max 1.0 submitted);
        ("msgs_per_req", over_cells (fun m _ -> metric m "messages" /. Float.max 1.0 (metric m "completed")));
      ];
    counts =
      [
        ("des.events", total "events");
        ("noc.messages", total "messages");
        ("noc.bytes", total "bytes");
        ("noc.bytes_per_req", total "bytes" /. Float.max 1.0 completed);
        ("noc.dropped", total "noc_dropped");
        ("repl.completed", completed);
        ("repl.retransmissions", rtx);
        ("repl.view_changes", total "view_changes");
        ("repl.wrong_replies", total "wrong_replies");
        ("repl.useful_ratio", completed /. Float.max 1.0 (submitted +. rtx));
        ("repl.checkpoints", total "checkpoints");
        ("repl.state_transfers", total "state_transfers");
        ("repl.transfer_bytes", total "transfer_bytes");
        ("fault.seu_injected", total "seu");
        ("fault.link_upsets", total "link_upsets");
        ("fault.link_wearouts", total "link_wearouts");
        ("resilience.rejuvenations", total "rejuvenations");
        ("resilience.partitions", total "partitions");
        ("check.hooks_fired", total "check_hooks");
        ("check.violations", float_of_int !violations);
        ("campaign.trials", float_of_int n_trials);
        ("campaign.failed_trials", float_of_int (n_trials - List.length trials));
        ("campaign.trial_s", trial_s);
        ("campaign.pool_s", wall -. (trial_s /. float_of_int jobs));
        ("campaign.parallel_efficiency", trial_s /. (float_of_int jobs *. wall));
      ];
    digest = Outcome.digest_of (List.rev !lines);
    attempted = n_trials;
    failures = List.rev !failures;
  }

let run ~jobs seed =
  Mutex.protect host_lock (fun () -> Hashtbl.reset host_table);
  let runs = ref [] in
  {
    Outcome.blocks =
      List.mapi
        (fun g group () ->
          runs := campaign ~seed ~jobs g group :: !runs;
          List.length group * replicates)
        groups;
    finish = (fun () -> finish ~jobs (List.rev !runs));
  }

(* The first replicate of every shape: (shape, group, cell index). *)
let firsts =
  List.concat
    (List.mapi
       (fun g group ->
         List.concat
           (List.mapi
              (fun c (shape, cell) -> if String.ends_with ~suffix:"#0" cell then [ (shape, g, c) ] else [])
              group))
       groups)

(* Run the given first replicates one after another on this domain with
   the given modes: the fixed subset behind the overhead twins and the
   heap probe. *)
let run_firsts ~seed ~check ~metrics firsts =
  set_modes ~check ~metrics;
  List.iter
    (fun (shape, g, c) ->
      Check.begin_replicate ();
      Inject.begin_replicate ();
      Obs.begin_replicate ();
      ignore
        (trial shape ~seed:(Resoc_campaign.Seed_tree.replicate_seed ~root:(root_seed seed g) ~cell:c ~replicate:0)))
    firsts;
  set_modes ~check:false ~metrics:false

(* Overhead twins: every first replicate with one mode on and then off,
   [rounds] times interleaved. Returns the ratio of the median on-time to
   the median off-time. *)
let twin ~seed ~rounds ~check ~metrics =
  let once on =
    snd (Outcome.timed (fun () -> run_firsts ~seed ~check:(check && on) ~metrics:(metrics && on) firsts))
  in
  let on = Array.make rounds 0.0 and off = Array.make rounds 0.0 in
  for i = 0 to rounds - 1 do
    on.(i) <- once true;
    off.(i) <- once false
  done;
  Pstats.median on /. Pstats.median off
