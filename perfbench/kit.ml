(* Protocol groups built from their parts, so the benchmark can see inside.
   [Resoc_core.Group.build] hides the fabric; here the fabric comes from
   [Soc.noc_fabric] or [Transport.hub], priced exactly as Group.build
   prices it, and is wrapped before the protocol starts:
   - every client endpoint's handler notices when its request completes,
     which gives request latencies measured from submission;
   - when tracing, [send]/[multicast] and every handler run inside spans.
   The wrappers only observe; the determinism digest, compared between
   traced and untraced runs, checks that they change nothing. *)

module Engine = Resoc_des.Engine
module Transport = Resoc_repl.Transport
module Stats = Resoc_repl.Stats
module Soc = Resoc_core.Soc
module Group = Resoc_core.Group
module Checkpoint = Resoc_repl.Checkpoint
module Pbft = Resoc_repl.Pbft
module Minbft = Resoc_repl.Minbft
module Cheapbft = Resoc_repl.Cheapbft
module Paxos = Resoc_repl.Paxos
module Primary_backup = Resoc_repl.Primary_backup

type proto = [ `Pbft | `Minbft | `Cheapbft | `Paxos | `Primary_backup ]

let proto_name : proto -> string = function
  | `Pbft -> "pbft"
  | `Minbft -> "minbft"
  | `Cheapbft -> "cheapbft"
  | `Paxos -> "paxos"
  | `Primary_backup -> "primary-backup"

type transport = Hub of { latency : int } | Noc of Soc.t

(* Growable int sample buffer. *)
module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then t.a <- Array.append t.a (Array.make t.n 0);
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_floats t = Array.init t.n (fun i -> float_of_int t.a.(i))
end

(* Request timing. A client has one request outstanding and serves its
   submissions in order, so its k-th completion answers its k-th
   submission. Open loop: latency runs from the submission (the time the
   request was due), counting any wait behind earlier requests. Closed
   loop: from dispatch, max(submission, previous completion). *)
type tracker = {
  engine : Engine.t;
  n_replicas : int;
  open_loop : bool;
  due : int Queue.t array;
  last_done : int array;
  latencies : Ints.t;
  mutable last_completion : int;
  mutable stats : Stats.t;  (* the protocol's shared stats, once started *)
}

let tracker engine ~n_replicas ~n_clients ~open_loop =
  {
    engine;
    n_replicas;
    open_loop;
    due = Array.init n_clients (fun _ -> Queue.create ());
    last_done = Array.make n_clients 0;
    latencies = Ints.create ();
    last_completion = 0;
    stats = Stats.create ();
  }

let on_complete t client =
  let now = Engine.now t.engine in
  let due = Queue.pop t.due.(client) in
  let from = if t.open_loop then due else max due t.last_done.(client) in
  Ints.add t.latencies (now - from);
  t.last_done.(client) <- now;
  t.last_completion <- now

let wrap_handler t endpoint h =
  let h =
    if endpoint < t.n_replicas then h
    else
      let client = endpoint - t.n_replicas in
      fun ~src msg ->
        let before = t.stats.Stats.completed in
        h ~src msg;
        if t.stats.Stats.completed > before then on_complete t client
  in
  if not !Spans.on then h
  else fun ~src msg ->
    Spans.enter Spans.repl_handler endpoint;
    match h ~src msg with
    | () -> Spans.leave ()
    | exception e ->
      Spans.leave ();
      raise e

let wrap_fabric t (fab : 'msg Transport.fabric) : 'msg Transport.fabric =
  let traced = !Spans.on in
  let send =
    if not traced then fab.Transport.send
    else fun ~src ~dst msg ->
      Spans.enter Spans.noc_send src;
      fab.Transport.send ~src ~dst msg;
      Spans.leave ()
  in
  let multicast =
    match fab.Transport.multicast with
    | Some m when traced ->
      Some
        (fun ~src ~dsts ~n msg ->
          Spans.enter Spans.noc_send src;
          m ~src ~dsts ~n msg;
          Spans.leave ())
    | m -> m
  in
  {
    fab with
    Transport.send;
    multicast;
    set_handler = (fun e h -> fab.Transport.set_handler e (wrap_handler t e h));
  }

type group = {
  proto : proto;
  n : int;
  n_clients : int;
  submit : client:int -> payload:int64 -> unit;
      (** Records the submission time, then submits. *)
  stats : Stats.t;
  replica_state : int -> int64;
  set_offline : int -> unit;
  set_online : int -> unit;
  messages : unit -> int;
  bytes : unit -> int;
  usig_registers : Resoc_hw.Register.t array;  (** MinBFT only. *)
  tracker : tracker;
}

let make_fabric engine transport ~size_of ~n_endpoints =
  match transport with
  | Hub { latency } -> Transport.hub engine ~n:n_endpoints ~latency ()
  | Noc soc -> Soc.noc_fabric soc ~placement:(Soc.spread_placement soc ~n:n_endpoints) ~size_of

(* Group.build's content-priced batch flights: the base message plus 16
   bytes per extra request. *)
let batch_bytes ~base ~len = base + (16 * max 0 (len - 1))

let build ?(f = 1) ?checkpoint ?batching engine transport (proto : proto) ~n_clients ~open_loop =
  let kind = (proto :> [ `Pbft | `Minbft | `A2m_bft | `Cheapbft | `Paxos | `Primary_backup ]) in
  let spec = { Group.default_spec with kind; f } in
  let n = Group.n_replicas_of spec in
  let n_endpoints = n + n_clients in
  let t = tracker engine ~n_replicas:n ~n_clients ~open_loop in
  let bytes = Group.message_bytes kind in
  let batched = batching <> None in
  let fabric size_of = wrap_fabric t (make_fabric engine transport ~size_of ~n_endpoints) in
  let start f = Spans.span Spans.repl_start 0 f in
  let mk ~submit ~stats ~replica_state ~set_offline ~set_online ~(fab : _ Transport.fabric)
      ~usig_registers =
    t.stats <- stats;
    {
      proto;
      n;
      n_clients;
      submit =
        (fun ~client ~payload ->
          Queue.push (Engine.now engine) t.due.(client);
          Spans.enter Spans.repl_submit client;
          submit ~client ~payload;
          Spans.leave ());
      stats;
      replica_state;
      set_offline;
      set_online;
      messages = fab.Transport.messages_sent;
      bytes = fab.Transport.bytes_sent;
      usig_registers;
      tracker = t;
    }
  in
  let if_ckpt g = match checkpoint with Some _ -> g | None -> fun _ -> () in
  match proto with
  | `Pbft ->
    let fab =
      fabric (function
        | Pbft.State_chunk c -> Checkpoint.chunk_bytes c
        | Pbft.Pre_prepare_b { requests; _ } -> batch_bytes ~base:bytes ~len:(List.length requests)
        | _ -> bytes)
    in
    let config =
      {
        Pbft.f;
        n_clients;
        request_timeout = spec.Group.request_timeout;
        vc_timeout = spec.Group.vc_timeout;
        checkpoint;
        multicast = false;
        batching;
      }
    in
    let sys = start (fun () -> Pbft.start engine fab config ()) in
    mk ~fab ~usig_registers:[||]
      ~submit:(fun ~client ~payload -> Pbft.submit sys ~client ~payload)
      ~stats:(Pbft.stats sys)
      ~replica_state:(fun replica -> Pbft.replica_state sys ~replica)
      ~set_offline:(fun replica -> Pbft.set_offline sys ~replica)
      ~set_online:(fun replica -> Pbft.set_online sys ~replica)
  | `Minbft ->
    let fab =
      fabric (function
        | Minbft.State_chunk c -> Checkpoint.chunk_bytes c
        | (Minbft.Prepare { requests; _ } | Minbft.Commit { requests; _ }) when batched ->
          batch_bytes ~base:bytes ~len:(List.length requests)
        | _ -> bytes)
    in
    let config =
      {
        Minbft.f;
        n_clients;
        request_timeout = spec.Group.request_timeout;
        vc_timeout = spec.Group.vc_timeout;
        usig_protection = spec.Group.usig_protection;
        keychain_master = 0xC0FFEEL;
        batch_window = spec.Group.batch_window;
        max_batch = 16;
        checkpoint;
        multicast = false;
        batching;
      }
    in
    let sys = start (fun () -> Minbft.start engine fab config ()) in
    mk ~fab
      ~usig_registers:
        (Array.init n (fun replica -> Resoc_hybrid.Usig.counter_register (Minbft.usig sys ~replica)))
      ~submit:(fun ~client ~payload -> Minbft.submit sys ~client ~payload)
      ~stats:(Minbft.stats sys)
      ~replica_state:(fun replica -> Minbft.replica_state sys ~replica)
      ~set_offline:(fun replica -> Minbft.set_offline sys ~replica)
      ~set_online:(fun replica -> Minbft.set_online sys ~replica)
  | `Cheapbft ->
    let fab =
      fabric (function
        | Cheapbft.State_chunk c -> Checkpoint.chunk_bytes c
        | Cheapbft.Prepare_b { requests; _ } | Cheapbft.Commit_b { requests; _ } ->
          batch_bytes ~base:bytes ~len:(List.length requests)
        | _ -> bytes)
    in
    let config =
      {
        Cheapbft.f;
        n_clients;
        request_timeout = spec.Group.request_timeout;
        vc_timeout = spec.Group.vc_timeout;
        update_period = 2_000;
        trinc_protection = spec.Group.usig_protection;
        keychain_master = 0x17E4C0L;
        checkpoint;
        multicast = false;
        batching;
      }
    in
    let sys = start (fun () -> Cheapbft.start engine fab config ()) in
    mk ~fab ~usig_registers:[||]
      ~submit:(fun ~client ~payload -> Cheapbft.submit sys ~client ~payload)
      ~stats:(Cheapbft.stats sys)
      ~replica_state:(fun replica -> Cheapbft.replica_state sys ~replica)
      ~set_offline:(if_ckpt (fun replica -> Cheapbft.set_offline sys ~replica))
      ~set_online:(if_ckpt (fun replica -> Cheapbft.set_online sys ~replica))
  | `Paxos ->
    let fab =
      fabric (function
        | Paxos.State_chunk c -> Checkpoint.chunk_bytes c
        | Paxos.Accept_b { requests; _ } -> batch_bytes ~base:bytes ~len:(List.length requests)
        | _ -> bytes)
    in
    let config =
      {
        Paxos.f;
        n_clients;
        request_timeout = spec.Group.request_timeout;
        election_timeout = spec.Group.vc_timeout;
        checkpoint;
        multicast = false;
        batching;
      }
    in
    let sys = start (fun () -> Paxos.start engine fab config ()) in
    mk ~fab ~usig_registers:[||]
      ~submit:(fun ~client ~payload -> Paxos.submit sys ~client ~payload)
      ~stats:(Paxos.stats sys)
      ~replica_state:(fun replica -> Paxos.replica_state sys ~replica)
      ~set_offline:(fun replica -> Paxos.set_offline sys ~replica)
      ~set_online:(fun replica -> Paxos.set_online sys ~replica)
  | `Primary_backup ->
    let fab =
      fabric (function
        | Primary_backup.State_chunk c -> Checkpoint.chunk_bytes c
        | Primary_backup.Update_b { replies; _ } ->
          batch_bytes ~base:bytes ~len:(List.length replies)
        | _ -> bytes)
    in
    let config =
      {
        Primary_backup.n_backups = f;
        n_clients;
        request_timeout = spec.Group.request_timeout;
        heartbeat_period = max 1 (spec.Group.vc_timeout / 5);
        detection_timeout = spec.Group.vc_timeout;
        checkpoint;
        multicast = false;
        batching;
      }
    in
    let sys = start (fun () -> Primary_backup.start engine fab config ()) in
    mk ~fab ~usig_registers:[||]
      ~submit:(fun ~client ~payload -> Primary_backup.submit sys ~client ~payload)
      ~stats:(Primary_backup.stats sys)
      ~replica_state:(fun replica -> Primary_backup.replica_state sys ~replica)
      ~set_offline:(if_ckpt (fun replica -> Primary_backup.set_offline sys ~replica))
      ~set_online:(if_ckpt (fun replica -> Primary_backup.set_online sys ~replica))

(* Run the engine inside a des.run span. *)
let run ?until engine = Spans.span Spans.des_run 0 (fun () -> Engine.run ?until engine)

(* Advance in [step]-cycle slices until every submitted request completed
   or the clock reaches [cap]. *)
let drain ?(step = 2_000) engine g ~cap =
  while g.stats.Stats.completed < g.stats.Stats.submitted && Engine.now engine < cap do
    run ~until:(min cap (Engine.now engine + step)) engine
  done

(* Let replicas that trail the reply quorum catch up before their states
   are compared: backups still applying the last commits, and CheapBFT's
   passive replicas, which only receive state every update period. *)
let settle engine = run ~until:(Engine.now engine + 5_000) engine

(* The correct replicas agree: every replica ends in the same state. *)
let states_agree g =
  let s0 = g.replica_state 0 in
  let ok = ref true in
  for r = 1 to g.n - 1 do
    if not (Int64.equal (g.replica_state r) s0) then ok := false
  done;
  !ok
