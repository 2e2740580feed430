module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior
module Check = Resoc_check.Check
module Core = Replica_core

type msg =
  | Request of Types.request
  | Accept_b of { term : int; seq : int; requests : Types.request list }
  | Accepted of { term : int; seq : int }
  | Commit of { term : int; seq : int }
  | Reply of Types.reply
  | Term_change of { new_term : int; last_exec : int }
  | New_term of { term : int; start_seq : int; state : int64; rid_table : (int * (int * int64)) list }
  | Checkpoint_vote of { seq : int; digest : Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  f : int;
  n_clients : int;
  request_timeout : int;
  election_timeout : int;
  checkpoint : Checkpoint.config option;
  multicast : bool;
  batching : Types.batching option;
}

let default_config =
  {
    f = 1;
    n_clients = 2;
    request_timeout = 4000;
    election_timeout = 2500;
    checkpoint = None;
    multicast = false;
    batching = None;
  }

let n_replicas config = (2 * config.f) + 1

(* Pooled in the slot ring and reset in place per sequence number; the
   ack set is a quorum bitset, so an entry costs no allocation after the
   ring warms up. *)
type entry = {
  mutable batch : Types.request list;  (* the requests agreed at this slot *)
  mutable acks : Quorum.t;
  mutable committed : bool;
  mutable executed : bool;
}

let fresh_entry _ = { batch = []; acks = Quorum.empty; committed = false; executed = false }

type replica = {
  core : msg Core.t;
  f : int;
  config : config;
  mutable term : int;
  mutable next_seq : int;
  mutable last_exec : int;
  log : entry Slot_ring.t;
  ordered : int Digest_map.t;
  election_rounds : Quorum.Rounds.t;  (* term -> voter -> last_exec *)
  mutable voted : int;
}

type t = { replicas : replica array; clients : msg Client.t array; shared_stats : Stats.t }

let leader_of ~term ~n = term mod n

let is_leader (r : replica) = leader_of ~term:r.term ~n:r.core.n = r.core.id

(* Crash faults only: the core's sends honour Silent and Delay, other
   Byzantine strategies degrade to honest behaviour here (the protocol has
   no notion of them), except Corrupt_execution which corrupts replies —
   unchecked by crash clients, the vulnerability E4 makes visible. *)

(* A starved request: escalate past terms whose leader never answered. *)
let escalate r () =
  let new_term = max r.term r.voted + 1 in
  r.voted <- new_term;
  Core.broadcast r.core ~to_:r.core.all_ids (Term_change { new_term; last_exec = r.last_exec })

let rec try_execute r =
  let c = r.core in
  let next = r.last_exec + 1 in
  let slot = Slot_ring.slot r.log next in
  if Core.below_high c next && slot >= 0 then begin
    let e = Slot_ring.entry r.log slot in
    if e.committed && not e.executed then begin
      e.executed <- true;
      r.last_exec <- next;
      Core.check_exec_window c ~seq:next;
      if c.chk >= 0 then begin
        (* [-1] signers: followers apply leader decisions without a local
           certificate; the leader's quorum is checked in [on_accepted]. *)
        Check.commit ~session:c.chk ~replica:c.id ~view:r.term ~seq:r.last_exec
          ~digest:(Types.batch_digest e.batch) ~signers:(-1) ~quorum:(r.f + 1)
          ~faulty:(Behavior.is_faulty c.behavior);
        if Core.batching c then Core.check_batch c ~view:r.term ~seq:next e.batch
      end;
      Core.exec_all c e.batch;
      if Core.after_exec c r.log ~seq:next ~vote_to:c.peer_ids then try_execute r;
      try_execute r
    end
  end

(* --- certified state transfer --- *)

(* An executed slot's requests; [] stops the served log suffix. *)
let served_payload e = if e.executed then e.batch else []

let install_transfer (r : replica) (comp : Checkpoint.completion) =
  r.term <- max r.term comp.Checkpoint.c_view;
  r.voted <- max r.voted r.term;
  r.last_exec <- Core.install_transfer r.core r.log comp;
  r.next_seq <- max r.next_seq (r.last_exec + 1);
  try_execute r

(* --- ordering --- *)

(* The whole list shares one slot, one Accept_b flight per follower, one
   ack round. Callers never hand over an empty or already-ordered list
   (the batcher's dedup guard or [order_request]). *)
let order_batch r (requests : Types.request list) =
  if requests != [] then begin
    let seq = r.next_seq in
    r.next_seq <- r.next_seq + 1;
    Core.mark_ordered r.ordered ~seq requests;
    let e, fresh = Slot_ring.bind r.log seq in
    if fresh then begin
      e.batch <- requests;
      e.acks <- Quorum.empty;
      e.committed <- false;
      e.executed <- false
    end
    else e.batch <- requests;
    e.acks <- Quorum.add e.acks r.core.id;
    Core.broadcast r.core ~to_:r.core.peer_ids (Accept_b { term = r.term; seq; requests })
  end

(* An unbatched request (ingress or term-change re-proposal) is a batch of
   one. *)
let order_request r (request : Types.request) =
  if not (Digest_map.mem r.ordered (Types.request_digest request)) then order_batch r [ request ]

(* --- term changes --- *)

let adopt_new_term r ~term ~start_seq ~state ~rid_table =
  let c = r.core in
  (match c.batcher with Some b -> Batcher.clear b | None -> ());
  (match c.cp with
  | Some cp ->
    Core.cancel_recover_timer c;
    Checkpoint.rebase cp ~seq:(start_seq - 1)
  | None -> ());
  r.term <- term;
  r.voted <- max r.voted term;
  Slot_ring.reset r.log;
  Digest_map.reset r.ordered;
  App.set_state c.app state;
  r.last_exec <- start_seq - 1;
  r.next_seq <- start_seq;
  Core.install_rid_table c rid_table;
  Core.cancel_timers c;
  Core.watch_all c ~delay:r.config.election_timeout

let become_leader r ~term ~start_seq =
  let c = r.core in
  let rid_table = Core.rid_table_list c in
  let state = App.state c.app in
  adopt_new_term r ~term ~start_seq ~state ~rid_table;
  Core.broadcast c ~to_:c.peer_ids (New_term { term; start_seq; state; rid_table });
  List.iter (order_request r) (Core.pending_sorted c)

let on_term_change r ~src ~new_term ~last_exec =
  if new_term > r.term then begin
    let c = r.core in
    let voters =
      Quorum.Rounds.note r.election_rounds ~current:r.term ~view:new_term ~voter:src
        ~value:last_exec
    in
    if voters >= 1 && r.voted < new_term then begin
      (* Crash model: one timeout report is credible; join immediately. *)
      r.voted <- new_term;
      Core.broadcast c ~to_:c.all_ids (Term_change { new_term; last_exec = r.last_exec })
    end;
    if voters >= r.f + 1 && leader_of ~term:new_term ~n:c.n = c.id then begin
      let max_exec = Quorum.Rounds.max_value r.election_rounds ~view:new_term ~default:r.last_exec in
      c.stats.Stats.view_changes <- c.stats.Stats.view_changes + 1;
      become_leader r ~term:new_term ~start_seq:(max_exec + 1)
    end
  end

(* --- message handling --- *)

let on_request r (request : Types.request) =
  let c = r.core in
  if Core.cached c request then Core.reply_cached c request
  else begin
    let digest = Types.request_digest request in
    let was_pending = Core.admit c ~digest request in
    if is_leader r then (
      match c.batcher with
      | Some b ->
        (* Retransmissions of a request already buffered (still pending)
           or already ordered must not enter a second batch. *)
        if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
      | None -> order_request r request)
    else begin
      Core.send c ~dst:(leader_of ~term:r.term ~n:c.n) (Request request);
      Core.watch c ~delay:r.config.election_timeout digest
    end
  end

let on_accept r ~src ~term ~seq ~requests =
  if term = r.term && src = leader_of ~term ~n:r.core.n && (not (is_leader r)) && requests != []
  then begin
    Core.mark_pending r.core requests;
    let e, fresh = Slot_ring.bind r.log seq in
    if fresh then begin
      e.batch <- requests;
      e.acks <- Quorum.empty;
      e.committed <- false;
      e.executed <- false
    end;
    Core.send r.core ~dst:src (Accepted { term; seq })
  end

let on_accepted r ~src ~term ~seq =
  if term = r.term && is_leader r then begin
    let slot = Slot_ring.slot r.log seq in
    if slot >= 0 then begin
      let e = Slot_ring.entry r.log slot in
      if not e.committed then begin
        e.acks <- Quorum.add e.acks src;
        if Quorum.reached e.acks ~threshold:(r.f + 1) then begin
          let c = r.core in
          e.committed <- true;
          if c.chk >= 0 then
            Check.commit ~session:c.chk ~replica:c.id ~view:r.term ~seq
              ~digest:(Types.batch_digest e.batch)
              ~signers:(Quorum.count e.acks)
              ~quorum:(r.f + 1)
              ~faulty:(Behavior.is_faulty c.behavior);
          Core.broadcast c ~to_:c.peer_ids (Commit { term; seq });
          try_execute r
        end
      end
    end
  end

let on_commit r ~src ~term ~seq =
  if term = r.term && src = leader_of ~term ~n:r.core.n then begin
    let slot = Slot_ring.slot r.log seq in
    if slot >= 0 then begin
      (Slot_ring.entry r.log slot).committed <- true;
      try_execute r
    end
  end

let on_new_term r ~src ~term ~start_seq ~state ~rid_table =
  if term > r.term && src = leader_of ~term ~n:r.core.n then
    adopt_new_term r ~term ~start_seq ~state ~rid_table

let handle (r : replica) ~src msg =
  let c = r.core in
  if Core.alive c then
    match msg with
    | Request request -> on_request r request
    | Accept_b { term; seq; requests } -> on_accept r ~src ~term ~seq ~requests
    | Accepted { term; seq } -> on_accepted r ~src ~term ~seq
    | Commit { term; seq } -> on_commit r ~src ~term ~seq
    | Term_change { new_term; last_exec } -> on_term_change r ~src ~new_term ~last_exec
    | New_term { term; start_seq; state; rid_table } ->
      on_new_term r ~src ~term ~start_seq ~state ~rid_table
    | Reply _ -> ()
    | Checkpoint_vote { seq; digest } ->
      if Core.on_checkpoint_vote c r.log ~src ~seq ~digest then try_execute r;
      Core.maybe_catchup c
    | Fetch_state { have } ->
      Core.on_fetch_state c r.log ~src ~view:r.term ~have ~upto:r.last_exec ~payload:served_payload
    | State_chunk chunk -> (
      match Core.on_state_chunk c ~src chunk with
      | Some comp when comp.Checkpoint.c_cert.Checkpoint.cp_seq > r.last_exec ->
        install_transfer r comp
      | Some _ | None -> ())

(* --- system assembly --- *)

let make_replica engine fabric config stats ~id ~behavior ~chk =
  let n = n_replicas config in
  let core =
    Core.create ~engine ~fabric ~id ~n ~n_clients:config.n_clients ~behavior ~stats ~chk
      ~request_timeout:config.request_timeout ~multicast:config.multicast
      ~checkpoint:config.checkpoint ~cp_quorum:(config.f + 1) ~spans:false
      ~reply:(fun reply -> Reply reply)
      ~vote:(fun ~seq ~digest -> Checkpoint_vote { seq; digest })
      ~fetch:(fun ~have -> Fetch_state { have })
      ~chunk:(fun chunk -> State_chunk chunk)
  in
  {
    core;
    f = config.f;
    config;
    term = 0;
    next_seq = 1;
    last_exec = 0;
    log = Slot_ring.create ~capacity:(2 * Core.log_retention) ~fresh:fresh_entry;
    ordered = Digest_map.create ~capacity:64 ();
    election_rounds = Quorum.Rounds.create ~n ();
    voted = 0;
  }

(* Built after the replica record so the escalation and the pipeline gate
   can read the live sequencing state: at most [pipeline_depth] agreement
   instances between the next proposal and the execution frontier, and
   never a proposal past the checkpoint high watermark. *)
let attach (r : replica) =
  r.core.escalate <- escalate r;
  match r.config.batching with
  | Some b when Batcher.active b ->
    r.core.batcher <-
      Some
        (Batcher.create ~engine:r.core.engine ~cfg:b ~seal:(order_batch r)
           ~ready:(fun () ->
             r.next_seq - r.last_exec - 1 < b.Types.pipeline_depth
             && Core.below_high r.core r.next_seq)
           ~occupancy:(fun () -> r.next_seq - r.last_exec - 1))
  | Some _ | None -> ()

let start engine fabric config ?behaviors () =
  let n = n_replicas config in
  let behaviors, chk =
    Core.setup ~name:"Paxos.start" ~protocol:"paxos" fabric ~n ~n_clients:config.n_clients
      behaviors
  in
  let stats = Stats.create () in
  let replicas =
    Array.init n (fun id -> make_replica engine fabric config stats ~id ~behavior:behaviors.(id) ~chk)
  in
  Array.iter
    (fun r ->
      attach r;
      fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg))
    replicas;
  let clients =
    Core.clients engine fabric ~n ~n_clients:config.n_clients ~quorum:1
      ~retry_timeout:config.request_timeout ~stats
      ~to_msg:(fun request -> Request request)
      ~of_msg:(function Reply reply -> Some reply | _ -> None)
  in
  { replicas; clients; shared_stats = stats }

let submit t ~client ~payload = Core.submit ~name:"Paxos.submit" t.clients ~client ~payload

let stats t = t.shared_stats

let term t ~replica = t.replicas.(replica).term

let replica_state t ~replica = App.state t.replicas.(replica).core.app

let set_replica_state t ~replica state = App.set_state t.replicas.(replica).core.app state

let replica_online t ~replica = t.replicas.(replica).core.online

let set_offline t ~replica = Core.set_offline t.replicas.(replica).core

let set_online t ~replica =
  let r = t.replicas.(replica) in
  let c = r.core in
  if not c.online then begin
    c.online <- true;
    match c.cp with
    | Some cp ->
      (* Rejuvenation wiped the replica: rejoin by certified transfer
         instead of a free peer copy. *)
      r.term <- 0;
      r.voted <- 0;
      r.last_exec <- 0;
      r.next_seq <- 1;
      Slot_ring.reset r.log;
      Digest_map.reset r.ordered;
      Core.rejoin_wiped c cp
    | None -> (
      match
        Core.legacy_rejoin c t.replicas ~core:(fun p -> p.core)
          ~at_least:(fun b p -> b.last_exec >= p.last_exec)
      with
      | Some peer ->
        r.term <- peer.term;
        r.voted <- max r.voted peer.term;
        r.last_exec <- peer.last_exec;
        r.next_seq <- peer.last_exec + 1;
        Slot_ring.reset r.log;
        Digest_map.reset r.ordered
      | None -> ())
  end
