module Engine = Resoc_des.Engine
module Behavior = Resoc_fault.Behavior
module Hash = Resoc_crypto.Hash
module Check = Resoc_check.Check
module Core = Replica_core

type msg =
  | Request of Types.request
  | Update of { epoch : int; seq : int; state : int64; client : int; rid : int; result : int64 }
  | Update_b of { epoch : int; seq : int; state : int64; replies : (int * int * int64) list }
  | Heartbeat of { epoch : int }
  | Promote of { epoch : int }
  | Reply of Types.reply
  | Checkpoint_vote of { seq : int; digest : Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  n_backups : int;
  n_clients : int;
  request_timeout : int;
  heartbeat_period : int;
  detection_timeout : int;
  checkpoint : Checkpoint.config option;
  multicast : bool;
  batching : Types.batching option;
}

let default_config =
  {
    n_backups = 1;
    n_clients = 2;
    request_timeout = 4000;
    heartbeat_period = 500;
    detection_timeout = 1500;
    checkpoint = None;
    multicast = false;
    batching = None;
  }

let n_replicas config = config.n_backups + 1

type replica = {
  core : msg Core.t;
  config : config;
  mutable epoch : int;
  mutable seq : int;  (* primary: updates shipped; backup: updates applied *)
  mutable last_heartbeat : int;
  buffered : (int * int, unit) Hashtbl.t;  (* (client, rid) parked in the batcher *)
}

type t = { replicas : replica array; clients : msg Client.t array; shared_stats : Stats.t }

let message_name = function
  | Request _ -> "request"
  | Update _ -> "update"
  | Update_b _ -> "update-batch"
  | Heartbeat _ -> "heartbeat"
  | Promote _ -> "promote"
  | Reply _ -> "reply"
  | Checkpoint_vote _ -> "checkpoint-vote"
  | Fetch_state _ -> "fetch-state"
  | State_chunk _ -> "state-chunk"

let primary_of ~epoch ~n = epoch mod n

let is_primary (r : replica) = primary_of ~epoch:r.epoch ~n:r.core.n = r.core.id

(* Both ends of an Update derive the same digest from its payload, so the
   checker can compare primary and backup commits at one (epoch, seq) slot.
   The tags are folded once, at module init. *)
let update_tag = Hash.of_string "pb-update"
let update_b_tag = Hash.of_string "pb-update-b"

let update_digest ~state ~client ~rid ~result =
  Hash.combine_int
    (Hash.combine (Hash.combine update_tag state) result)
    ((client * 1_000_003) + rid)

(* Batched updates: the digest folds every (client, rid, result) reply
   over the post-batch state, so primary and backups again agree on one
   value per (epoch, seq). *)
let update_b_digest ~state ~(replies : (int * int * int64) list) =
  List.fold_left
    (fun acc (client, rid, result) ->
      Hash.combine_int (Hash.combine acc result) ((client * 1_000_003) + rid))
    (Hash.combine update_b_tag state)
    replies

(* Checkpoints here keep no agreement log to truncate and nothing waits on
   the watermark: a certificate only counts. *)
let count_vote r cp ~seq ~digest ~voter =
  if Checkpoint.note_vote cp ~seq ~digest ~voter >= 0 then
    r.core.stats.Stats.checkpoints <- r.core.stats.Stats.checkpoints + 1

(* Primary-side checkpointing: at every boundary the primary digests its
   state, announces the vote (so backups track stability and detect
   falling behind), and — the quorum being 1 in the crash-pair model —
   immediately stabilises its own certificate. *)
let note_boundary r =
  let c = r.core in
  match c.cp with
  | None -> ()
  | Some cp -> (
    Core.check_exec_window c ~seq:r.seq;
    match
      Checkpoint.note_exec cp ~seq:r.seq ~state:(App.state c.app) ~rid_last:c.rid_last
        ~rid_result:c.rid_result
    with
    | None -> ()
    | Some digest ->
      Core.broadcast c ~to_:c.peer_ids (Checkpoint_vote { seq = r.seq; digest });
      count_vote r cp ~seq:r.seq ~digest ~voter:c.id)

(* Batched primary path ([config.batching], the [Batcher.seal] callback):
   execute the whole batch in arrival order, bump the sequence number
   ONCE, and ship one Update_b with the post-batch state plus one
   (client, rid, result) reply per request — the reply list is what lets
   backups rebuild the same reply cache the primary has. *)
let exec_batch r (requests : Types.request list) =
  List.iter
    (fun (req : Types.request) -> Hashtbl.remove r.buffered (req.Types.client, req.Types.rid))
    requests;
  if requests <> [] && is_primary r then begin
    let c = r.core in
    let replies =
      List.map
        (fun (req : Types.request) -> (req.Types.client, req.Types.rid, Core.execute c req))
        requests
    in
    r.seq <- r.seq + 1;
    let state = App.state c.app in
    if c.chk >= 0 then begin
      Check.commit ~session:c.chk ~replica:c.id ~view:r.epoch ~seq:r.seq
        ~digest:(update_b_digest ~state ~replies)
        ~signers:(-1) ~quorum:1
        ~faulty:(Behavior.is_faulty c.behavior);
      Core.check_batch c ~view:r.epoch ~seq:r.seq requests
    end;
    Core.broadcast c ~to_:c.peer_ids (Update_b { epoch = r.epoch; seq = r.seq; state; replies });
    note_boundary r;
    List.iter (fun (client, rid, result) -> Core.reply c ~client ~rid result) replies
  end

let on_request r (request : Types.request) =
  if is_primary r then begin
    let c = r.core in
    let client = request.Types.client and rid = request.Types.rid in
    let cached = Core.cached c request in
    match c.batcher with
    | Some b when not cached ->
      (* Retransmissions of a request already parked in the batcher must
         not enter a second batch. *)
      if not (Hashtbl.mem r.buffered (client, rid)) then begin
        Hashtbl.replace r.buffered (client, rid) ();
        Batcher.add b request
      end
    | Some _ | None ->
      if cached then Core.reply_cached c request
      else begin
        let result = Core.execute c request in
        r.seq <- r.seq + 1;
        if c.chk >= 0 then
          Check.commit ~session:c.chk ~replica:c.id ~view:r.epoch ~seq:r.seq
            ~digest:(update_digest ~state:(App.state c.app) ~client ~rid ~result)
            ~signers:(-1) ~quorum:1
            ~faulty:(Behavior.is_faulty c.behavior);
        (* Ship the new state to the standbys. *)
        Core.broadcast c ~to_:c.peer_ids
          (Update { epoch = r.epoch; seq = r.seq; state = App.state c.app; client; rid; result });
        note_boundary r;
        Core.reply c ~client ~rid result
      end
  end

let on_update r ~epoch ~seq ~state ~client ~rid ~result =
  if epoch >= r.epoch && seq > r.seq then begin
    let c = r.core in
    r.epoch <- max r.epoch epoch;
    r.seq <- seq;
    App.set_state c.app state;
    if c.chk >= 0 then
      Check.commit ~session:c.chk ~replica:c.id ~view:epoch ~seq
        ~digest:(update_digest ~state ~client ~rid ~result)
        ~signers:(-1) ~quorum:1
        ~faulty:(Behavior.is_faulty c.behavior);
    Core.store c ~client ~rid result;
    match c.cp with
    | None -> ()
    | Some cp ->
      (* Landing exactly on a boundary lets the backup match the
         primary's vote; a skipped boundary (gap in the update stream)
         instead trips the catch-up path when the vote arrives. *)
      ignore (Checkpoint.note_exec cp ~seq ~state ~rid_last:c.rid_last ~rid_result:c.rid_result)
  end

let on_update_b r ~epoch ~seq ~state ~(replies : (int * int * int64) list) =
  if epoch >= r.epoch && seq > r.seq then begin
    let c = r.core in
    r.epoch <- max r.epoch epoch;
    r.seq <- seq;
    App.set_state c.app state;
    if c.chk >= 0 then begin
      Check.commit ~session:c.chk ~replica:c.id ~view:epoch ~seq
        ~digest:(update_b_digest ~state ~replies)
        ~signers:(-1) ~quorum:1
        ~faulty:(Behavior.is_faulty c.behavior);
      let len = List.length replies in
      List.iteri
        (fun pos (client, rid, _) ->
          Check.batch_commit ~session:c.chk ~replica:c.id ~view:epoch ~seq ~pos ~len ~client ~rid
            ~faulty:(Behavior.is_faulty c.behavior))
        replies
    end;
    List.iter
      (fun (client, rid, result) ->
        let i = Core.rid_slot c client in
        (* Reply-cache hits sealed into a batch carry their old rid; never
           regress the cache below what this backup already recorded. *)
        if c.rid_last.(i) = min_int || rid > c.rid_last.(i) then begin
          c.rid_last.(i) <- rid;
          c.rid_result.(i) <- result
        end)
      replies;
    match c.cp with
    | None -> ()
    | Some cp ->
      ignore (Checkpoint.note_exec cp ~seq ~state ~rid_last:c.rid_last ~rid_result:c.rid_result)
  end

let on_fetch_state r ~src ~have =
  let c = r.core in
  match c.cp with
  | None -> ()
  | Some cp ->
    (* Self-stabilize at the execution tip before serving: Updates carry
       full state but no replayable log, so serving the last periodic
       boundary would restore a wiped primary behind the backups and make
       it re-issue sequence numbers they already executed. In the crash
       model this replica's own snapshot is as trustworthy as any
       certificate (the quorum is 1). The transfer then needs no log
       suffix: Meta + reply-cache chunks reconstruct the replica. *)
    if (not (Checkpoint.recovering cp)) && r.seq > Checkpoint.low cp then
      Checkpoint.force_stable cp ~seq:r.seq ~state:(App.state c.app) ~rid_last:c.rid_last
        ~rid_result:c.rid_result ~voter:c.id;
    Core.serve c cp ~src ~view:r.epoch ~have ~suffix:[]

let install_transfer (r : replica) (comp : Checkpoint.completion) =
  r.epoch <- max r.epoch comp.Checkpoint.c_view;
  r.seq <- Core.install_state r.core comp;
  r.last_heartbeat <- Engine.now r.core.engine

let on_heartbeat r ~epoch =
  if epoch >= r.epoch then begin
    r.epoch <- max r.epoch epoch;
    r.last_heartbeat <- Engine.now r.core.engine
  end

let on_promote r ~epoch =
  if epoch > r.epoch then begin
    r.epoch <- epoch;
    r.last_heartbeat <- Engine.now r.core.engine;
    if is_primary r then r.core.stats.Stats.view_changes <- r.core.stats.Stats.view_changes + 1
  end

let handle (r : replica) ~src msg =
  let c = r.core in
  if Core.alive c then
    match msg with
    | Request request -> on_request r request
    | Update { epoch; seq; state; client; rid; result } ->
      on_update r ~epoch ~seq ~state ~client ~rid ~result
    | Update_b { epoch; seq; state; replies } -> on_update_b r ~epoch ~seq ~state ~replies
    | Heartbeat { epoch } -> on_heartbeat r ~epoch
    | Promote { epoch } -> on_promote r ~epoch
    | Reply _ -> ()
    | Checkpoint_vote { seq; digest } -> (
      match c.cp with
      | Some cp ->
        count_vote r cp ~seq ~digest ~voter:src;
        Core.maybe_catchup c
      | None -> ())
    | Fetch_state { have } -> on_fetch_state r ~src ~have
    | State_chunk chunk -> (
      match Core.on_state_chunk c ~src chunk with
      | Some comp when comp.Checkpoint.c_cert.Checkpoint.cp_seq > r.seq -> install_transfer r comp
      | Some _ | None -> ())

(* Primary duty: periodic heartbeats. Backup duty: watch for silence; the
   next-in-line backup promotes itself when the detector fires. Ranks stagger
   the takeover so two backups don't promote simultaneously. *)
let start_timers (r : replica) =
  let c = r.core in
  Engine.every c.engine ~period:r.config.heartbeat_period (fun () ->
      if Core.alive c then
        if is_primary r then Core.broadcast c ~to_:c.peer_ids (Heartbeat { epoch = r.epoch })
        else begin
          let silence = Engine.now c.engine - r.last_heartbeat in
          (* The smallest future epoch whose primary is this replica; the
             extra stagger lets closer-ranked backups claim first, so a dead
             next-in-line does not wedge the failover chain. *)
          let mine =
            let offset = ((c.id - (r.epoch + 1)) mod c.n + c.n) mod c.n in
            r.epoch + 1 + offset
          in
          let rank = mine - r.epoch - 1 in
          if silence > r.config.detection_timeout + (rank * r.config.heartbeat_period) then begin
            r.epoch <- mine;
            c.stats.Stats.view_changes <- c.stats.Stats.view_changes + 1;
            r.last_heartbeat <- Engine.now c.engine;
            Core.broadcast c ~to_:c.peer_ids (Promote { epoch = mine })
          end
        end)

let make_replica engine fabric config stats ~id ~behavior ~chk =
  let core =
    Core.create ~engine ~fabric ~id ~n:(n_replicas config) ~n_clients:config.n_clients ~behavior
      ~stats ~chk ~request_timeout:config.request_timeout ~multicast:config.multicast
      ~checkpoint:config.checkpoint ~cp_quorum:1 ~spans:false
      ~reply:(fun reply -> Reply reply)
      ~vote:(fun ~seq ~digest -> Checkpoint_vote { seq; digest })
      ~fetch:(fun ~have -> Fetch_state { have })
      ~chunk:(fun chunk -> State_chunk chunk)
  in
  { core; config; epoch = 0; seq = 0; last_heartbeat = 0; buffered = Hashtbl.create 16 }

(* The primary executes and replies the moment it seals, so there is no
   in-flight agreement to bound: the pipeline gate is trivially open and
   occupancy is always 0 — batching here only amortizes Update traffic. *)
let attach_batcher (r : replica) =
  match r.config.batching with
  | Some b when Batcher.active b ->
    r.core.batcher <-
      Some
        (Batcher.create ~engine:r.core.engine ~cfg:b ~seal:(exec_batch r)
           ~ready:(fun () -> true)
           ~occupancy:(fun () -> 0))
  | Some _ | None -> ()

let start engine fabric config ?behaviors () =
  let n = n_replicas config in
  let behaviors, chk =
    Core.setup ~name:"Primary_backup.start" ~protocol:"primary_backup" fabric ~n
      ~n_clients:config.n_clients behaviors
  in
  let stats = Stats.create () in
  let replicas =
    Array.init n (fun id -> make_replica engine fabric config stats ~id ~behavior:behaviors.(id) ~chk)
  in
  Array.iter
    (fun r ->
      attach_batcher r;
      fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg);
      start_timers r)
    replicas;
  let clients =
    Core.clients engine fabric ~n ~n_clients:config.n_clients ~quorum:1
      ~retry_timeout:config.request_timeout ~stats
      ~to_msg:(fun request -> Request request)
      ~of_msg:(function Reply reply -> Some reply | _ -> None)
  in
  { replicas; clients; shared_stats = stats }

let submit t ~client ~payload = Core.submit ~name:"Primary_backup.submit" t.clients ~client ~payload

let stats t = t.shared_stats

let epoch t ~replica = t.replicas.(replica).epoch

let current_primary t =
  let best = Array.fold_left (fun acc r -> if r.epoch > acc.epoch then r else acc) t.replicas.(0) t.replicas in
  primary_of ~epoch:best.epoch ~n:best.core.n

let replica_state t ~replica = App.state t.replicas.(replica).core.app

let set_replica_state t ~replica state = App.set_state t.replicas.(replica).core.app state

let replica_online t ~replica = t.replicas.(replica).core.online

(* Rejuvenation is modelled only with checkpointing: without it the
   rejoining replica would need a state source the protocol lacks. *)
let set_offline t ~replica =
  let r = t.replicas.(replica) in
  ignore (Core.checkpoint_exn ~name:"Primary_backup.set_offline" r.core);
  if r.core.online then Hashtbl.reset r.buffered;
  Core.set_offline r.core

let set_online t ~replica =
  let r = t.replicas.(replica) in
  let c = r.core in
  let cp = Core.checkpoint_exn ~name:"Primary_backup.set_online" c in
  if not c.online then begin
    c.online <- true;
    r.last_heartbeat <- Engine.now c.engine;
    (* Rejuvenation wiped the replica: rejoin by certified transfer. *)
    r.epoch <- 0;
    r.seq <- 0;
    Core.rejoin_wiped c cp
  end
