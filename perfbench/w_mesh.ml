(* mesh-bft: PBFT and MinBFT groups (f = 1) on a 4x4 mesh NoC with XY
   unicast, each driven by 8 open-loop Poisson clients, stepped through a
   ladder of offered loads from light to just past PBFT's saturation.
   Faults, batching and checkpointing are off. NoC hop events and link
   contention dominate; latency rises with load, so queueing shows. *)

module Engine = Resoc_des.Engine
module Soc = Resoc_core.Soc

let protocols : Kit.proto list = [ `Pbft; `Minbft ]
let clients = 8

(* Aggregate mean inter-arrival times (cycles) over all 8 clients. *)
let ladder = [ 400; 200; 120; 90; 75; 60 ]
(* The reference rung gets many more replicates: its p99 is reported, and
   a tail percentile needs many samples to repeat across seeds. The other
   rungs only have to say whether p99 meets the limit. *)
let replicates = 8
let ref_replicates = 32
let window = 50_000  (* arrivals are generated over [0, window) *)
let drain_cap = 4 * window  (* every request must complete by then *)

type params = { ref_interarrival : int; limit_cycles : int }

type sys = {
  label : string;
  interarrival : int;
  soc : Soc.t;
  engine : Engine.t;
  group : Kit.group;
  schedules : int array array;
}

let setup params seed =
  if not (List.mem params.ref_interarrival ladder) then
    invalid_arg "mesh-bft: the reference inter-arrival must be on the load ladder";
  let build pi proto ia r =
    let path = [ pi; ia; r ] in
    let soc =
      Spans.span Spans.core_soc_create 0 (fun () ->
          Soc.create { Soc.default_config with seed = Gen.derive seed (0 :: path) })
    in
    let engine = Soc.engine soc in
    let group = Kit.build engine (Kit.Noc soc) proto ~n_clients:clients ~open_loop:true in
    let gen = Gen.create (Gen.derive seed (1 :: path)) in
    let mean = float_of_int (ia * clients) in
    {
      label = Printf.sprintf "%s/ia%d/r%d" (Kit.proto_name proto) ia r;
      interarrival = ia;
      soc;
      engine;
      group;
      schedules = Array.init clients (fun _ -> W_req.poisson_schedule gen ~mean ~until:window);
    }
  in
  List.concat
    (List.mapi
       (fun pi proto ->
         List.concat_map
           (fun ia ->
             let n = if ia = params.ref_interarrival then ref_replicates else replicates in
             List.init n (build pi proto ia))
           ladder)
       protocols)

let finish params results dropped =
  let rs = List.map (fun (_, r, _) -> r) results in
  let at ia = List.filter_map (fun (i, r, _) -> if i = ia then Some r else None) results in
  let ref_lat = W_req.pooled (at params.ref_interarrival) in
  let meets ia =
    let rs = at ia in
    List.for_all (fun r -> r.W_req.completed = r.W_req.submitted) rs
    && Pstats.percentile (W_req.pooled rs) 99.0 <= float_of_int params.limit_cycles
  in
  let max_rate =
    List.fold_left
      (fun acc ia -> if meets ia then Float.max acc (1000.0 /. float_of_int ia) else acc)
      0.0 ladder
  in
  let ladder_lines =
    List.map
      (fun ia ->
        Printf.sprintf "load ia=%d rate=%.2f/kcycle p50=%.0f p99=%.0f" ia (1000.0 /. float_of_int ia)
          (Pstats.percentile (W_req.pooled (at ia)) 50.0)
          (Pstats.percentile (W_req.pooled (at ia)) 99.0))
      ladder
  in
  {
    Outcome.units = W_req.sum (fun r -> r.W_req.completed) rs;
    replicate_s = Array.of_list (List.map (fun (_, _, dt) -> dt) results);
    inner_setup_s = 0.0;
    sim =
      [
        ("sim_p50_cycles", Pstats.percentile ref_lat 50.0);
        ("sim_p99_cycles", Pstats.percentile ref_lat 99.0);
        ("sim_max_rate", max_rate);
        ("sim_completed_ratio", W_req.completed_ratio rs);
        ("msgs_per_req", W_req.msgs_per_req rs);
      ];
    counts = W_req.counts rs @ [ ("noc.dropped", float_of_int dropped) ];
    digest = Outcome.digest_of (List.map W_req.line rs @ ladder_lines);
    attempted = List.length rs;
    failures = List.concat_map W_req.fault_free_failures rs;
  }

(* Blocks for the calibrator: per protocol, the light half of the ladder
   (with the reference rung) and the heavy half. *)
let block_of params s = (s.group.Kit.proto, s.interarrival >= params.ref_interarrival)

let run params systems =
  let dropped = ref 0 and results = ref [] in
  let run_one s =
    let r, dt =
      Outcome.timed (fun () ->
          W_req.feed s.engine s.group s.schedules;
          Kit.run ~until:window s.engine;
          Kit.drain s.engine s.group ~cap:drain_cap;
          Kit.settle s.engine;
          W_req.result s.label s.engine s.group ~cycles:(Engine.now s.engine))
    in
    dropped := !dropped + Soc.noc_dropped s.soc;
    results := (s.interarrival, r, dt) :: !results
  in
  let keys = List.sort_uniq compare (List.map (block_of params) systems) in
  {
    Outcome.blocks =
      List.map
        (fun k () ->
          let group = List.filter (fun s -> block_of params s = k) systems in
          List.iter run_one group;
          List.length group)
        keys;
    finish = (fun () -> finish params (List.rev !results) !dropped);
  }

let prepare params seed = run params (setup params seed)
