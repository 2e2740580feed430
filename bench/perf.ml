(* Self-timing harness for the simulator hot path.

   Canonical workloads, each a deterministic simulation whose wall
   clock and allocation rate are measured end to end:

   - [churn]    pure-engine event churn: 64 self-rescheduling actors, no
                protocol logic, so the engine's queue discipline dominates;
   - [e3mesh]   the E3 kernel: a MinBFT group on a 4x4 mesh NoC serving a
                client burst — heap + NoC link model + protocol timers;
   - [e2seu]    the E2 kernel: one SEU-campaign replicate (MinBFT over the
                hub transport with SEU injection and periodic scrubbing);
   - [pbftkern] a PBFT group on the zero-cost hub transport serving a
                client burst — no NoC, no faults, so the replication
                layer's own data structures dominate;
   - [paxoskern] the same shape for the crash-fault Paxos group;
   - [bftcast]  a chip-wide broadcast storm on an 8x8 mesh with tree
                multicast on: 64 endpoints take turns broadcasting a
                protocol-sized payload to the whole chip through
                [Transport.broadcast], so each fan-out forks inside the
                NoC instead of injecting one flight per destination;
   - [bftcastuni] the identical workload with multicast off (the unicast
                fan-out baseline). Both report logical protocol messages
                as their event count — a mode-invariant work unit — so
                events/sec compares how fast each mode pushes the same
                protocol traffic, and the bftcast:bftcastuni ratio is the
                multicast speedup;
   - [pbftbatch] a PBFT group on the hub transport serving a client burst
                with request batching + agreement pipelining on (window
                50, max_batch 8, pipeline depth 4): each agreement
                instance carries up to 8 requests, so the protocol
                message count per request collapses;
   - [pbftbatchuni] the identical logical traffic with batching off (one
                instance per request). Both report completed client
                requests as their event count — the mode-invariant work
                unit — so events/sec is requests/sec and the
                pbftbatch:pbftbatchuni ratio is the batching speedup;
   - [hwmc]     the hardware layer: E1's gate-level Monte Carlo on the
                8-input/400-gate random module as TMR with a fallible
                voter. Its event count is Monte-Carlo trials;
   - [secded]   the hardware layer's register protection: SECDED(72,64)
                encode, 0-2 bit flips, decode, over a deterministic word
                stream — the codec every USIG/TrInc certificate, pipeline
                gate check and SEU scrub runs. Its event count is words.

   Each workload runs [runs] times; we report the best wall time (least
   noisy) and the minimum allocated bytes per event (steady-state floor).
   The simulations themselves are pure functions of their seeds, so the
   event counts are exact and reproducible; only the timings vary.

   Results go to stdout and to BENCH_PERF.json (see [emit_json] for the
   schema); bench/regress.exe diffs that file against a committed
   baseline. *)

module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Register = Resoc_hw.Register
module Seu = Resoc_fault.Seu
module Usig = Resoc_hybrid.Usig
module Transport = Resoc_repl.Transport
module Minbft = Resoc_repl.Minbft
module Pbft = Resoc_repl.Pbft
module Paxos = Resoc_repl.Paxos
module Soc = Resoc_core.Soc
module Group = Resoc_core.Group
module Generator = Resoc_workload.Generator
module Circuit = Resoc_hw.Circuit
module Redundancy = Resoc_hw.Redundancy
module Ecc = Resoc_hw.Ecc

type result = {
  id : string;
  runs : int;
  events : int;
  best_wall_s : float;
  events_per_sec : float;
  alloc_bytes_per_event : float;
}

(* --- workloads: each returns the number of events processed --- *)

let churn ~events () =
  let e = Engine.create () in
  let actors = 64 in
  for i = 0 to actors - 1 do
    (* One closure per actor, reused for every rescheduling, so the
       measurement isolates the engine's own per-event cost. The delay
       pattern is a fixed function of (now, actor): deterministic and
       cheap, with enough spread to exercise heap reordering. *)
    let rec fire () = ignore (Engine.schedule e ~delay:(1 + ((Engine.now e + i) mod 13)) fire) in
    ignore (Engine.schedule e ~delay:(1 + (i mod 7)) fire)
  done;
  Engine.run ~max_events:events e;
  Engine.events_processed e

(* One E3/E2 simulation lasts a few milliseconds; [repeat] independent
   replicas inside the measured region push each sample well past timer
   resolution and scheduler noise. *)

let e3_mesh ~requests ~repeat () =
  let total = ref 0 in
  for _ = 1 to repeat do
    let soc =
      Soc.create { Soc.default_config with mesh_width = 4; mesh_height = 4; seed = 77L }
    in
    let spec = { Group.default_spec with kind = `Minbft; f = 1; n_clients = 2 } in
    let group = Group.build (Soc.engine soc) (Group.On_soc soc) spec in
    Generator.burst ~n_per_client:(requests / 2) ~n_clients:2 ~submit:group.Group.submit;
    Engine.run ~until:2_000_000 (Soc.engine soc);
    total := !total + Engine.events_processed (Soc.engine soc)
  done;
  !total

let e2_seu_once ~horizon ~seed =
  let engine = Engine.create ~seed () in
  let config =
    { Minbft.default_config with f = 1; n_clients = 2; usig_protection = Register.Secded }
  in
  let n = Minbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 2) () in
  let sys = Minbft.start engine fabric config () in
  let registers =
    Array.init n (fun replica -> Usig.counter_register (Minbft.usig sys ~replica))
  in
  let seu =
    Seu.start engine (Rng.create (Int64.add seed 7L)) ~rate_per_bit_cycle:1.0e-6 registers
  in
  Engine.every engine ~period:250 (fun () -> Array.iter Register.scrub registers);
  Generator.periodic engine ~period:2_000 ~until:horizon ~n_clients:2
    ~submit:(fun ~client ~payload -> Minbft.submit sys ~client ~payload)
    ();
  Engine.run ~until:horizon engine;
  ignore (Seu.injected seu);
  Engine.events_processed engine

let e2_seu ~horizon ~repeat () =
  let total = ref 0 in
  (* Replicate seeds follow the campaign seed-tree convention: leaf [i]
     of the root seed, addressed in O(1) (see Rng.derive). *)
  for i = 0 to repeat - 1 do
    total := !total + e2_seu_once ~horizon ~seed:(Rng.derive 0x5EEDL i)
  done;
  !total

(* Replication-layer kernels: a BFT (PBFT) and a crash-fault (Paxos) group
   on the hub transport — constant-latency message passing, no NoC link
   model, no fault injection — serving a closed-loop client burst. Nearly
   every simulated event is a protocol message, so these isolate the cost
   of the agreement data structures (quorum tracking, agreement logs,
   broadcast fan-out). *)

let pbft_kern ~requests ~repeat () =
  let total = ref 0 in
  for i = 0 to repeat - 1 do
    let engine = Engine.create ~seed:(Rng.derive 0xBF7L i) () in
    let config = { Pbft.default_config with f = 1; n_clients = 2 } in
    let n = Pbft.n_replicas config in
    let fabric = Transport.hub engine ~n:(n + 2) () in
    let sys = Pbft.start engine fabric config () in
    Generator.burst ~n_per_client:(requests / 2) ~n_clients:2 ~submit:(fun ~client ~payload ->
        Pbft.submit sys ~client ~payload);
    Engine.run ~until:2_000_000 engine;
    total := !total + Engine.events_processed engine
  done;
  !total

(* Broadcast-heavy NoC kernel: endpoints on all 64 tiles of an 8x8 mesh
   take turns broadcasting a protocol-sized payload to the whole chip
   through [Transport.broadcast] — the same path the replica fan-outs
   use. With [multicast] each broadcast is one injection forking along
   the per-root tree (every live link carries the payload once); without,
   it is 64 independent flights whose hop-by-hop events and link queueing
   dominate. The returned count is logical NoC messages — identical
   accounting in both modes by construction — so events/sec compares
   wall time for the same protocol traffic and bftcast:bftcastuni is the
   multicast speedup. *)
let bft_cast ~multicast ~rounds ~repeat () =
  let total = ref 0 in
  for _ = 1 to repeat do
    let soc =
      Soc.create
        {
          Soc.default_config with
          mesh_width = 8;
          mesh_height = 8;
          noc = { Resoc_noc.Network.default_config with multicast };
          seed = 77L;
        }
    in
    let engine = Soc.engine soc in
    let n = 64 in
    let fabric =
      Soc.noc_fabric soc ~placement:(Array.init n Fun.id) ~size_of:(fun _ -> 96)
    in
    for i = 0 to n - 1 do
      fabric.Transport.set_handler i (fun ~src:_ _ -> ())
    done;
    let everyone = List.init n Fun.id in
    let sent = ref 0 in
    Engine.every engine ~period:64 (fun () ->
        if !sent < rounds then begin
          Transport.broadcast fabric ~src:(!sent mod n) ~to_:everyone !sent;
          incr sent
        end);
    Engine.run ~until:(64 * (rounds + 32)) engine;
    total := !total + Soc.noc_messages soc
  done;
  !total

(* Batching kernel pair: identical logical traffic (a closed-loop burst
   of [requests] requests from 16 clients against a PBFT f=2 group on the
   hub), with and without the batching config. Clients are closed-loop
   (one outstanding request each), so the client count is what lets
   batches actually form. The returned count is completed requests —
   identical in both modes by construction — so events/sec is
   requests/sec and pbftbatch:pbftbatchuni is the batching speedup. *)
let pbft_batch ~batching ~requests ~repeat () =
  let n_clients = 16 in
  let total = ref 0 in
  for i = 0 to repeat - 1 do
    let engine = Engine.create ~seed:(Rng.derive 0xBA7CL i) () in
    let batching =
      if batching then
        Some { Resoc_repl.Types.window_cycles = 50; max_batch = 8; pipeline_depth = 4 }
      else None
    in
    let config = { Pbft.default_config with f = 2; n_clients; batching } in
    let n = Pbft.n_replicas config in
    let fabric = Transport.hub engine ~n:(n + n_clients) () in
    let sys = Pbft.start engine fabric config () in
    Generator.burst ~n_per_client:(requests / n_clients) ~n_clients
      ~submit:(fun ~client ~payload -> Pbft.submit sys ~client ~payload);
    Engine.run ~until:4_000_000 engine;
    let s = Pbft.stats sys in
    let expected = requests / n_clients * n_clients in
    if s.Resoc_repl.Stats.completed < expected then
      failwith
        (Printf.sprintf "pbftbatch kernel: only %d/%d requests completed"
           s.Resoc_repl.Stats.completed expected);
    total := !total + s.Resoc_repl.Stats.completed
  done;
  !total

let paxos_kern ~requests ~repeat () =
  let total = ref 0 in
  for i = 0 to repeat - 1 do
    let engine = Engine.create ~seed:(Rng.derive 0xBA05L i) () in
    let config = { Paxos.default_config with f = 1; n_clients = 2 } in
    let n = Paxos.n_replicas config in
    let fabric = Transport.hub engine ~n:(n + 2) () in
    let sys = Paxos.start engine fabric config () in
    Generator.burst ~n_per_client:(requests / 2) ~n_clients:2 ~submit:(fun ~client ~payload ->
        Paxos.submit sys ~client ~payload);
    Engine.run ~until:2_000_000 engine;
    total := !total + Engine.events_processed engine
  done;
  !total

(* Hardware-layer kernel: [Redundancy.mc_circuit_correct] on E1's module
   as TMR at a mid-ladder p_gate. Every call runs the same number of
   trials, so allocation per trial is the same in quick and full mode; the
   circuit is built once, outside the measured region. *)
let hw_mc ~calls =
  let rng = Rng.create 0xE1L in
  let tmr = Circuit.replicate_with_voter (Circuit.random_logic rng ~n_inputs:8 ~n_gates:400) 3 in
  let trials = 20_000 in
  fun () ->
    for i = 0 to calls - 1 do
      ignore
        (Redundancy.mc_circuit_correct (Rng.create (Rng.derive 0xE1L i)) tmr ~trials ~p_gate:0.002)
    done;
    calls * trials

(* SECDED kernel: a cycle of clean, single-flip (corrected) and
   double-flip (detected) words, so all three decode outcomes are timed.
   Words and flip positions are a fixed function of the index. *)
let secded ~words () =
  let acc = ref 0L in
  for i = 0 to words - 1 do
    let data = Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L in
    let w = Ecc.encode data in
    let w =
      match i land 3 with
      | 1 -> Ecc.flip w (i mod Ecc.width)
      | 2 -> Ecc.flip (Ecc.flip w (i mod 36)) (36 + (i mod 36))
      | _ -> w
    in
    let d, _ = Ecc.decode w in
    acc := Int64.logxor !acc d
  done;
  ignore (Sys.opaque_identity !acc);
  words

(* --- measurement --- *)

let measure ~id ~runs f =
  let best_wall = ref infinity in
  let best_alloc = ref infinity in
  let events = ref 0 in
  for _ = 1 to runs do
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let n = f () in
    let t1 = Unix.gettimeofday () in
    let a1 = Gc.allocated_bytes () in
    if n <= 0 then failwith (Printf.sprintf "perf workload %s processed no events" id);
    events := n;
    let wall = t1 -. t0 in
    if wall < !best_wall then best_wall := wall;
    let per = (a1 -. a0) /. float_of_int n in
    if per < !best_alloc then best_alloc := per
  done;
  {
    id;
    runs;
    events = !events;
    best_wall_s = !best_wall;
    events_per_sec = float_of_int !events /. !best_wall;
    alloc_bytes_per_event = !best_alloc;
  }

(* --- emission --- *)

let float_repr v =
  if Float.is_nan v || v = Float.infinity || v = Float.neg_infinity then "null"
  else Printf.sprintf "%.6g" v

let emit_json ~dir ~mode results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schema\":\"resoc-perf/1\",\"mode\":\"";
  Buffer.add_string buf mode;
  Buffer.add_string buf "\",\"workloads\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":\"%s\",\"runs\":%d,\"events\":%d,\"best_wall_s\":%s,\"events_per_sec\":%s,\"alloc_bytes_per_event\":%s}"
           r.id r.runs r.events (float_repr r.best_wall_s) (float_repr r.events_per_sec)
           (float_repr r.alloc_bytes_per_event)))
    results;
  Buffer.add_string buf "]}\n";
  let path = Filename.concat dir "BENCH_PERF.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  path

let run ~quick ~json_dir ~progress () =
  let runs = if quick then 2 else 3 in
  let note fmt =
    Printf.ksprintf (fun s -> if progress then Printf.eprintf "[perf] %s\n%!" s) fmt
  in
  Printf.printf "=== Simulator hot-path performance (%s mode, best of %d) ===\n"
    (if quick then "quick" else "full")
    runs;
  let workloads =
    if quick then
      [
        ("churn", churn ~events:400_000);
        ("e3mesh", e3_mesh ~requests:100 ~repeat:4);
        ("e2seu", e2_seu ~horizon:100_000 ~repeat:4);
        ("pbftkern", pbft_kern ~requests:100 ~repeat:6);
        ("paxoskern", paxos_kern ~requests:100 ~repeat:6);
        ("bftcast", bft_cast ~multicast:true ~rounds:200 ~repeat:2);
        ("bftcastuni", bft_cast ~multicast:false ~rounds:200 ~repeat:2);
        ("pbftbatch", pbft_batch ~batching:true ~requests:200 ~repeat:4);
        ("pbftbatchuni", pbft_batch ~batching:false ~requests:200 ~repeat:4);
        ("hwmc", hw_mc ~calls:8);
        ("secded", secded ~words:400_000);
      ]
    else
      [
        ("churn", churn ~events:2_000_000);
        ("e3mesh", e3_mesh ~requests:200 ~repeat:25);
        ("e2seu", e2_seu ~horizon:250_000 ~repeat:25);
        ("pbftkern", pbft_kern ~requests:200 ~repeat:30);
        ("paxoskern", paxos_kern ~requests:200 ~repeat:30);
        ("bftcast", bft_cast ~multicast:true ~rounds:600 ~repeat:4);
        ("bftcastuni", bft_cast ~multicast:false ~rounds:600 ~repeat:4);
        ("pbftbatch", pbft_batch ~batching:true ~requests:400 ~repeat:8);
        ("pbftbatchuni", pbft_batch ~batching:false ~requests:400 ~repeat:8);
        ("hwmc", hw_mc ~calls:40);
        ("secded", secded ~words:4_000_000);
      ]
  in
  let results =
    List.map
      (fun (id, f) ->
        note "running %s ..." id;
        let r = measure ~id ~runs f in
        note "%s: %.0f events/s" id r.events_per_sec;
        r)
      workloads
  in
  Printf.printf "%-8s %12s %12s %14s %12s\n" "workload" "events" "wall(s)" "events/sec"
    "allocB/ev";
  List.iter
    (fun r ->
      Printf.printf "%-8s %12d %12.4f %14.0f %12.1f\n" r.id r.events r.best_wall_s
        r.events_per_sec r.alloc_bytes_per_event)
    results;
  match json_dir with
  | None -> ()
  | Some dir ->
    let path = emit_json ~dir ~mode:(if quick then "quick" else "full") results in
    Printf.printf "wrote %s\n" path
