module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior
module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry
module Ring = Resoc_obs.Ring
module Check = Resoc_check.Check
module Core = Replica_core

type msg =
  | Request of Types.request
  | Pre_prepare_b of { view : int; seq : int; digest : Hash.t; requests : Types.request list }
      (* One instance covers the whole request list (digest =
         Types.batch_digest); an unbatched request is a list of one. One
         NoC flight per destination carries every payload. *)
  | Prepare of { view : int; seq : int; digest : Hash.t }
  | Commit of { view : int; seq : int; digest : Hash.t }
  | Reply of Types.reply
  | View_change of { new_view : int; last_exec : int }
  | New_view of { view : int; start_seq : int; state : int64; rid_table : (int * (int * int64)) list }
  | Checkpoint_vote of { seq : int; digest : Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  f : int;
  n_clients : int;
  request_timeout : int;
  vc_timeout : int;
  checkpoint : Checkpoint.config option;
  multicast : bool;
  batching : Types.batching option;
}

let default_config =
  {
    f = 1;
    n_clients = 2;
    request_timeout = 4000;
    vc_timeout = 2500;
    checkpoint = None;
    multicast = false;
    batching = None;
  }

let n_replicas config = (3 * config.f) + 1

(* Entries are pooled in the slot ring and reset in place when a new
   sequence number claims the slot — every field is mutable, so
   steady-state agreement allocates nothing per slot. *)
type entry = {
  mutable e_view : int;
  mutable digest : Hash.t;
  mutable batch : Types.request list;  (* the instance's requests; [] until the pre-prepare *)
  mutable prepares : Quorum.t;
  mutable commits : Quorum.t;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable executed : bool;
}

let fresh_entry _ =
  {
    e_view = -1;
    digest = Hash.zero;
    batch = [];
    prepares = Quorum.empty;
    commits = Quorum.empty;
    sent_commit = false;
    committed = false;
    executed = false;
  }

(* Stale-view marker returned by [entry_for]; never stored in a ring. *)
let null_entry = fresh_entry 0

type replica = {
  core : msg Core.t;
  f : int;
  config : config;
  mutable view : int;
  mutable next_seq : int;  (* next sequence number to assign (when primary) *)
  mutable last_exec : int;
  log : entry Slot_ring.t;  (* seq -> entry (current view only) *)
  ordered : int Digest_map.t;  (* digest -> seq, current view *)
  vc_rounds : Quorum.Rounds.t;  (* view -> voter -> last_exec *)
  mutable vc_voted : int;  (* highest view we voted for *)
  obs_vc : int;
}

type t = { replicas : replica array; clients : msg Client.t array; shared_stats : Stats.t }

let primary_of ~view ~n = view mod n

let is_primary (r : replica) = primary_of ~view:r.view ~n:r.core.n = r.core.id

(* The entry tracking [seq], creating it (reset in place) on first
   touch. Returns [null_entry] when the slot holds a stale-view entry;
   the message is ignored. *)
let entry_for r ~view ~seq ~digest =
  let e, fresh = Slot_ring.bind r.log seq in
  if fresh then begin
    e.e_view <- view;
    e.digest <- digest;
    e.batch <- [];
    e.prepares <- Quorum.empty;
    e.commits <- Quorum.empty;
    e.sent_commit <- false;
    e.committed <- false;
    e.executed <- false;
    if !Obs.trace_on then
      Ring.async_begin r.core.obs.Obs.ring ~time:(Engine.now r.core.engine) ~cat:Obs.Cat.repl
        ~id:(Obs.repl_counter_span ~replica:r.core.id ~counter:seq)
        ~arg:0;
    e
  end
  else if e.e_view = view then e
  else null_entry  (* stale view entry at this slot; ignore the message *)

(* An entry carries its payload once the pre-prepare arrived; until then
   Prepare/Commit quorums may gather but nothing can commit or execute. *)
let[@inline] entry_filled (e : entry) = e.batch != []

(* Execute committed entries in sequence order. The rid table provides
   exactly-once semantics per client and caches the last reply. With
   checkpointing on, execution additionally (a) refuses to pass the
   high watermark, (b) snapshots and votes at checkpoint boundaries,
   and (c) defers log truncation to stable-checkpoint advances. *)
let rec try_execute r =
  let c = r.core in
  let seq = r.last_exec + 1 in
  if Core.below_high c seq then begin
    let slot = Slot_ring.slot r.log seq in
    if slot >= 0 then begin
      let e = Slot_ring.entry r.log slot in
      if e.committed && (not e.executed) && entry_filled e then begin
        Core.check_exec_window c ~seq;
        e.executed <- true;
        r.last_exec <- r.last_exec + 1;
        if !Obs.trace_on then
          Ring.async_end c.obs.Obs.ring ~time:(Engine.now c.engine) ~cat:Obs.Cat.repl
            ~id:(Obs.repl_counter_span ~replica:c.id ~counter:r.last_exec)
            ~arg:0;
        Core.exec_all c e.batch;
        if Core.after_exec c r.log ~seq:r.last_exec ~vote_to:c.peer_ids then try_execute r;
        try_execute r
      end
    end
  end

(* --- certified state transfer --- *)

(* An executed entry's requests; [] stops the served log suffix. *)
let served_payload e = if e.executed then e.batch else []

(* Install a completed, verified transfer and rejoin execution at the
   tip. *)
let install_transfer r (comp : Checkpoint.completion) =
  r.view <- max r.view comp.Checkpoint.c_view;
  r.vc_voted <- max r.vc_voted r.view;
  r.last_exec <- Core.install_transfer r.core r.log comp;
  r.next_seq <- max r.next_seq (r.last_exec + 1);
  try_execute r

let try_commit r ~seq (e : entry) =
  if (not e.committed)
     && Quorum.reached e.commits ~threshold:((2 * r.f) + 1)
     && Quorum.reached e.prepares ~threshold:((2 * r.f) + 1)
     && entry_filled e
  then begin
    e.committed <- true;
    let c = r.core in
    if c.chk >= 0 then begin
      Check.commit ~session:c.chk ~replica:c.id ~view:r.view ~seq ~digest:e.digest
        ~signers:(Quorum.count e.commits)
        ~quorum:((2 * r.f) + 1)
        ~faulty:(Behavior.is_faulty c.behavior);
      if Core.batching c then Core.check_batch c ~view:r.view ~seq e.batch
    end;
    try_execute r
  end

let send_commit_if_prepared r ~seq (e : entry) =
  if (not e.sent_commit) && entry_filled e
     && Quorum.reached e.prepares ~threshold:((2 * r.f) + 1)
  then begin
    e.sent_commit <- true;
    e.commits <- Quorum.add e.commits r.core.id;
    Core.broadcast r.core ~to_:r.core.peer_ids (Commit { view = r.view; seq; digest = e.digest });
    try_commit r ~seq e
  end

(* --- view changes --- *)

(* A starved request: escalate past views whose primary never
   answered. *)
let escalate r () =
  let new_view = max r.view r.vc_voted + 1 in
  r.vc_voted <- new_view;
  Core.broadcast r.core ~to_:r.core.all_ids (View_change { new_view; last_exec = r.last_exec })

let equivocating (c : msg Core.t) =
  match Behavior.active_strategy c.behavior ~now:(Engine.now c.engine) with
  | Some Behavior.Equivocate -> true
  | Some _ | None -> false

(* The digest an equivocating primary shows the first f+1 backups. *)
let lie digest = Hash.combine digest (Hash.of_string "lie")

(* One sequence number covers the whole list, agreed under its batch
   digest, shipped as one (multicast-able) flight per destination. Dedup
   happened on the way in (the batcher's guard or [order_request]), so the
   list is ordered verbatim — which is what lets the
   [Batcher.test_duplicate_first] mutant actually reach agreement. *)
let order_batch r (requests : Types.request list) =
  if requests != [] then begin
    let c = r.core in
    let digest = Types.batch_digest requests in
    let seq = r.next_seq in
    r.next_seq <- r.next_seq + 1;
    Core.mark_ordered r.ordered ~seq requests;
    if !Obs.trace_on then
      Ring.instant c.obs.Obs.ring ~time:(Engine.now c.engine) ~cat:Obs.Cat.repl
        ~id:(Obs.repl_event ~replica:c.id ~code:Obs.code_pre_prepare)
        ~arg:seq;
    let equivocating = equivocating c in
    let e = entry_for r ~view:r.view ~seq ~digest in
    if e != null_entry then begin
      e.batch <- requests;
      e.prepares <- Quorum.add e.prepares c.id
    end;
    let backups = c.peer_ids in
    if equivocating then begin
      (* An equivocating primary tells half the backups a different
         story. The truthful half is too small to form a 2f+1 quorum, so
         the slot stalls until a view change evicts the primary. *)
      let lies = r.f + 1 in
      for i = 0 to Array.length backups - 1 do
        let digest' = if i < lies then lie digest else digest in
        Core.send c ~dst:backups.(i)
          (Pre_prepare_b { view = r.view; seq; digest = digest'; requests })
      done
    end
    else Core.broadcast c ~to_:backups (Pre_prepare_b { view = r.view; seq; digest; requests })
  end

(* An unbatched request (ingress or view-change re-proposal) is a batch of
   one. *)
let order_request r (request : Types.request) =
  if not (Digest_map.mem r.ordered (Types.request_digest request)) then order_batch r [ request ]

let adopt_new_view r ~view ~start_seq ~state ~rid_table =
  let c = r.core in
  (match c.batcher with Some b -> Batcher.clear b | None -> ());
  r.view <- view;
  r.vc_voted <- max r.vc_voted view;
  Slot_ring.reset r.log;
  Digest_map.reset r.ordered;
  App.set_state c.app state;
  r.last_exec <- start_seq - 1;
  r.next_seq <- start_seq;
  Core.install_rid_table c rid_table;
  (* Forget cached replies consistent with the transferred state only;
     pending requests restart their patience. *)
  Core.cancel_timers c;
  (* The new view is a fresh proof baseline: watermarks rebase onto the
     adopted last_exec and any in-flight transfer becomes stale. *)
  (match c.cp with
  | Some cp ->
    Core.cancel_recover_timer c;
    Checkpoint.rebase cp ~seq:(start_seq - 1)
  | None -> ());
  Core.watch_all c ~delay:r.config.vc_timeout

let become_primary r ~view ~start_seq =
  let rid_table = Core.rid_table_list r.core in
  let state = App.state r.core.app in
  adopt_new_view r ~view ~start_seq ~state ~rid_table;
  Core.broadcast r.core ~to_:r.core.peer_ids (New_view { view; start_seq; state; rid_table });
  (* Re-propose everything still pending, deterministically ordered. *)
  List.iter (order_request r) (Core.pending_sorted r.core)

let on_view_change r ~src ~new_view ~last_exec =
  if new_view > r.view then begin
    let c = r.core in
    let voters =
      Quorum.Rounds.note r.vc_rounds ~current:r.view ~view:new_view ~voter:src ~value:last_exec
    in
    (* Join the view change once f+1 replicas are committed to it: at least
       one of them is honest, so the timeout was genuine. *)
    if voters >= r.f + 1 && r.vc_voted < new_view then begin
      r.vc_voted <- new_view;
      Core.broadcast c ~to_:c.all_ids (View_change { new_view; last_exec = r.last_exec })
    end;
    if voters >= (2 * r.f) + 1 && primary_of ~view:new_view ~n:c.n = c.id then begin
      let max_exec = Quorum.Rounds.max_value r.vc_rounds ~view:new_view ~default:r.last_exec in
      c.stats.Stats.view_changes <- c.stats.Stats.view_changes + 1;
      if !Obs.metrics_on then Registry.incr c.obs.Obs.metrics r.obs_vc;
      if !Obs.trace_on then
        Ring.instant c.obs.Obs.ring ~time:(Engine.now c.engine) ~cat:Obs.Cat.repl
          ~id:(Obs.repl_event ~replica:c.id ~code:Obs.code_view_change)
          ~arg:new_view;
      become_primary r ~view:new_view ~start_seq:(max_exec + 1)
    end
  end

(* --- message handling --- *)

let on_request r (request : Types.request) =
  let c = r.core in
  (* Already executed: re-send the cached reply. *)
  if Core.cached c request then Core.reply_cached c request
  else begin
    let digest = Types.request_digest request in
    let was_pending = Core.admit c ~digest request in
    if is_primary r then (
      match c.batcher with
      | Some b ->
        (* A retransmission of a request that is already buffered here or
           ordered-but-unexecuted must not enter a second batch; pending
           membership covers exactly that interval. *)
        if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
      | None -> order_request r request)
    else begin
      (* Forward to the primary and watch it. *)
      Core.send c ~dst:(primary_of ~view:r.view ~n:c.n) (Request request);
      Core.watch c ~delay:r.config.vc_timeout digest
    end
  end

let on_pre_prepare r ~src ~view ~seq ~digest ~requests =
  let c = r.core in
  if view = r.view && src = primary_of ~view ~n:c.n && (not (is_primary r)) && requests != []
  then begin
    Core.mark_pending c requests;
    if Hash.equal digest (Types.batch_digest requests) then begin
      let e = entry_for r ~view ~seq ~digest in
      if e != null_entry && Hash.equal e.digest digest then begin
        e.batch <- requests;
        e.prepares <- Quorum.add e.prepares src;
        (* our own prepare vote *)
        if not (Quorum.mem e.prepares c.id) then begin
          e.prepares <- Quorum.add e.prepares c.id;
          Core.broadcast c ~to_:c.peer_ids (Prepare { view; seq; digest })
        end;
        send_commit_if_prepared r ~seq e
      end
    end
    else
      (* Digest mismatch: an equivocating or corrupt primary. Watch every
         carried request; the timers push a view change. *)
      Core.watch_pending c ~delay:r.config.vc_timeout requests
  end

let on_prepare r ~src ~view ~seq ~digest =
  if view = r.view then begin
    let e = entry_for r ~view ~seq ~digest in
    if e != null_entry && Hash.equal e.digest digest then begin
      e.prepares <- Quorum.add e.prepares src;
      send_commit_if_prepared r ~seq e
    end
  end

let on_commit r ~src ~view ~seq ~digest =
  if view = r.view then begin
    let e = entry_for r ~view ~seq ~digest in
    if e != null_entry && Hash.equal e.digest digest then begin
      e.commits <- Quorum.add e.commits src;
      try_commit r ~seq e
    end
  end

let on_new_view r ~src ~view ~start_seq ~state ~rid_table =
  if view > r.view && src = primary_of ~view ~n:r.core.n then
    adopt_new_view r ~view ~start_seq ~state ~rid_table

let handle (r : replica) ~src msg =
  let c = r.core in
  if Core.alive c then
    match msg with
    | Request request -> on_request r request
    | Pre_prepare_b { view; seq; digest; requests } ->
      on_pre_prepare r ~src ~view ~seq ~digest ~requests
    | Prepare { view; seq; digest } -> on_prepare r ~src ~view ~seq ~digest
    | Commit { view; seq; digest } -> on_commit r ~src ~view ~seq ~digest
    | View_change { new_view; last_exec } -> on_view_change r ~src ~new_view ~last_exec
    | New_view { view; start_seq; state; rid_table } ->
      on_new_view r ~src ~view ~start_seq ~state ~rid_table
    | Checkpoint_vote { seq; digest } ->
      if Core.on_checkpoint_vote c r.log ~src ~seq ~digest then try_execute r;
      Core.maybe_catchup c
    | Fetch_state { have } ->
      Core.on_fetch_state c r.log ~src ~view:r.view ~have ~upto:r.last_exec ~payload:served_payload
    | State_chunk chunk -> (
      match Core.on_state_chunk c ~src chunk with
      | Some comp when comp.Checkpoint.c_cert.Checkpoint.cp_seq > r.last_exec ->
        install_transfer r comp
      | Some _ | None -> ())
    | Reply _ -> ()

(* --- system assembly --- *)

let make_replica engine fabric config stats ~id ~behavior ~chk =
  let obs = Engine.obs engine in
  let obs_vc =
    if !Obs.metrics_on then Registry.counter obs.Obs.metrics "repl.view_changes" else 0
  in
  let n = n_replicas config in
  let core =
    Core.create ~engine ~fabric ~id ~n ~n_clients:config.n_clients ~behavior ~stats ~chk
      ~request_timeout:config.request_timeout ~multicast:config.multicast
      ~checkpoint:config.checkpoint ~cp_quorum:((2 * config.f) + 1) ~spans:true
      ~reply:(fun reply -> Reply reply)
      ~vote:(fun ~seq ~digest -> Checkpoint_vote { seq; digest })
      ~fetch:(fun ~have -> Fetch_state { have })
      ~chunk:(fun chunk -> State_chunk chunk)
  in
  {
    core;
    f = config.f;
    config;
    view = 0;
    next_seq = 1;
    last_exec = 0;
    log = Slot_ring.create ~capacity:(2 * Core.log_retention) ~fresh:fresh_entry;
    ordered = Digest_map.create ~capacity:64 ();
    vc_rounds = Quorum.Rounds.create ~n ();
    vc_voted = 0;
    obs_vc;
  }

(* The escalation and batcher closures need the replica record, so they
   are attached after construction. An inactive (armed-but-unused) batching config creates no
   batcher at all: the ordering path stays the unbatched one, event for
   event. The pipeline gate: at most [pipeline_depth] instances between
   the next proposal and the execution frontier, and never a proposal past
   the checkpoint high watermark. *)
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
    Core.setup ~name:"Pbft.start" ~protocol:"pbft" fabric ~n ~n_clients:config.n_clients behaviors
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
    Core.clients engine fabric ~n ~n_clients:config.n_clients ~quorum:(config.f + 1)
      ~retry_timeout:config.request_timeout ~stats
      ~to_msg:(fun request -> Request request)
      ~of_msg:(function Reply reply -> Some reply | _ -> None)
  in
  { replicas; clients; shared_stats = stats }

let submit t ~client ~payload = Core.submit ~name:"Pbft.submit" t.clients ~client ~payload

let stats t = t.shared_stats

let view t ~replica = t.replicas.(replica).view

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
      (* Rejuvenation wiped the replica: restart from nothing and rejoin
         by fetching the latest certified checkpoint plus log suffix
         from the peers — state is earned, not received for free. *)
      r.view <- 0;
      r.vc_voted <- 0;
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
        r.view <- peer.view;
        r.vc_voted <- max r.vc_voted peer.view;
        r.last_exec <- peer.last_exec;
        r.next_seq <- peer.last_exec + 1;
        Slot_ring.reset r.log;
        Digest_map.reset r.ordered
      | None -> ())
  end
