(* hub-batch: all five protocol families (PBFT, MinBFT, CheapBFT, Paxos,
   primary-backup) on the 5-cycle hub, 16 closed-loop clients each, with
   request batching and pipelining on at window 50 / batch 8 / depth 4
   (E3's --batch setting). There is no NoC, so the replication layer
   dominates. *)

module Engine = Resoc_des.Engine
module Stats = Resoc_repl.Stats
module Histogram = Resoc_des.Metrics.Histogram

let protocols : Kit.proto list = [ `Pbft; `Minbft; `Cheapbft; `Paxos; `Primary_backup ]
let clients = 16
let requests_per_client = 250
let replicates = 8
let hub_latency = 5
let batching = { Resoc_repl.Types.window_cycles = 50; max_batch = 8; pipeline_depth = 4 }
let drain_cap = 2_000_000

type sys = { label : string; engine : Engine.t; group : Kit.group; payloads : int64 array array }

let setup seed =
  List.concat
    (List.mapi
       (fun pi proto ->
         List.init replicates (fun r ->
             let engine = Engine.create ~seed:(Gen.derive seed [ 0; pi; r ]) () in
             let group =
               Kit.build ~batching engine (Kit.Hub { latency = hub_latency }) proto
                 ~n_clients:clients ~open_loop:false
             in
             let gen = Gen.create (Gen.derive seed [ 1; pi; r ]) in
             let payloads = Array.init clients (fun _ -> Array.init requests_per_client (fun _ -> Gen.next gen)) in
             { label = Printf.sprintf "%s/r%d" (Kit.proto_name proto) r; engine; group; payloads }))
       protocols)

(* The benchmark's own latencies (dispatch to accepted reply) must match
   the library's histogram exactly. *)
let latency_cross_check (r : W_req.result) =
  let h = r.W_req.stats.Stats.latency in
  let ok =
    Histogram.count h = Array.length r.W_req.latencies
    && (Array.length r.W_req.latencies = 0
       || Histogram.percentile h 99.0 = Pstats.percentile r.W_req.latencies 99.0
          && Histogram.percentile h 50.0 = Pstats.percentile r.W_req.latencies 50.0)
  in
  if ok then [] else [ r.W_req.label ^ ": request latencies disagree with Stats.latency" ]

let finish results =
  let rs = List.map fst results in
  let lat = W_req.pooled rs in
  {
    Outcome.units = W_req.sum (fun r -> r.W_req.completed) rs;
    replicate_s = Array.of_list (List.map snd results);
    inner_setup_s = 0.0;
    sim =
      [
        ("sim_p50_cycles", Pstats.percentile lat 50.0);
        ("sim_p99_cycles", Pstats.percentile lat 99.0);
        ("sim_throughput", W_req.throughput rs);
        ("sim_completed_ratio", W_req.completed_ratio rs);
        ("msgs_per_req", W_req.msgs_per_req rs);
      ];
    counts = W_req.counts rs @ [ ("noc.dropped", 0.0) ];
    digest = Outcome.digest_of (List.map W_req.line rs);
    attempted = List.length rs;
    failures =
      List.concat_map (fun r -> W_req.fault_free_failures r @ latency_cross_check r) rs;
  }

(* One calibrator block per protocol. *)
let run systems =
  let results = ref [] in
  let run_one s =
    results :=
      Outcome.timed (fun () ->
          Array.iteri
            (fun client payloads -> Array.iter (fun payload -> s.group.Kit.submit ~client ~payload) payloads)
            s.payloads;
          Kit.drain ~step:5_000 s.engine s.group ~cap:drain_cap;
          Kit.settle s.engine;
          W_req.result s.label s.engine s.group ~cycles:s.group.Kit.tracker.Kit.last_completion)
      :: !results
  in
  {
    Outcome.blocks =
      List.map
        (fun proto () ->
          let group = List.filter (fun s -> s.group.Kit.proto = proto) systems in
          List.iter run_one group;
          List.length group)
        protocols;
    finish = (fun () -> finish (List.rev !results));
  }

let prepare seed = run (setup seed)
