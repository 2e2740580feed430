module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior
module Check = Resoc_check.Check

type msg =
  | Request of Types.request
  | Accept of { term : int; seq : int; request : Types.request }
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
  mutable request : Types.request;
  mutable batch : Types.request list;  (* non-empty iff the slot agreed a batch *)
  mutable acks : Quorum.t;
  mutable committed : bool;
  mutable executed : bool;
}

let no_request : Types.request = { Types.client = -1; rid = -1; payload = 0L }

let fresh_entry _ =
  { request = no_request; batch = []; acks = Quorum.empty; committed = false; executed = false }

type replica = {
  id : int;
  n : int;
  f : int;
  engine : Engine.t;
  fabric : msg Transport.fabric;
  config : config;
  behavior : Behavior.t;
  app : App.t;
  stats : Stats.t;
  mutable online : bool;
  mutable term : int;
  mutable next_seq : int;
  mutable last_exec : int;
  log : entry Slot_ring.t;
  ordered : int Digest_map.t;
  pending : Types.request Digest_map.t;
  mutable rid_last : int array;  (* client -> last rid, min_int = none *)
  mutable rid_result : int64 array;
  timers : Engine.handle Digest_map.t;
  election_rounds : Quorum.Rounds.t;  (* term -> voter -> last_exec *)
  mutable voted : int;
  all_ids : int array;
  peer_ids : int array;
  mcast : (src:int -> dsts:int array -> n:int -> msg -> unit) option;
      (* fabric multicast, resolved once; None = per-destination sends *)
  chk : int;  (* resoc_check session, -1 when checking is off *)
  cp : Checkpoint.t option;  (* checkpoint certificates, None = legacy *)
  mutable recover_timer : Engine.handle option;
  mutable batcher : Batcher.t option;  (* leader-side batching, None = legacy *)
}

type t = {
  engine : Engine.t;
  config : config;
  replicas : replica array;
  clients : msg Client.t array;
  shared_stats : Stats.t;
}

let message_name = function
  | Request _ -> "request"
  | Accept _ -> "accept"
  | Accept_b _ -> "accept-batch"
  | Accepted _ -> "accepted"
  | Commit _ -> "commit"
  | Reply _ -> "reply"
  | Term_change _ -> "term-change"
  | New_term _ -> "new-term"
  | Checkpoint_vote _ -> "checkpoint-vote"
  | Fetch_state _ -> "fetch-state"
  | State_chunk _ -> "state-chunk"

(* Forward bound for overflow pruning on the legacy path: anything this far
   past the execution frontier is an outlier that will never execute. *)
let prune_margin = 1 lsl 15

let leader_of ~term ~n = term mod n

let is_leader (r : replica) = leader_of ~term:r.term ~n:r.n = r.id

(* Crash faults only: Byzantine strategies other than Silent degrade to
   honest behaviour here (the protocol has no notion of them), except
   Corrupt_execution which corrupts replies — unchecked by crash clients,
   the vulnerability E4 makes visible. *)
let send (r : replica) ~dst msg =
  let now = Engine.now r.engine in
  if r.online && not (Behavior.is_crashed r.behavior ~now) then
    match Behavior.active_strategy r.behavior ~now with
    | Some Behavior.Silent -> ()
    | Some (Behavior.Delay d) ->
      ignore
        (Engine.schedule r.engine ~delay:d (fun () -> r.fabric.Transport.send ~src:r.id ~dst msg))
    | Some Behavior.Equivocate | Some Behavior.Corrupt_execution | None ->
      r.fabric.Transport.send ~src:r.id ~dst msg

(* Fan-outs take the fabric's tree multicast when the replica was built
   with one: a single behaviour gate, then one injection that forks in
   the network instead of [Array.length to_] unicasts. *)
let broadcast r ~to_ msg =
  match r.mcast with
  | Some mc ->
    let now = Engine.now r.engine in
    if r.online && not (Behavior.is_crashed r.behavior ~now) then (
      match Behavior.active_strategy r.behavior ~now with
      | Some Behavior.Silent -> ()
      | Some (Behavior.Delay d) ->
        ignore
          (Engine.schedule r.engine ~delay:d (fun () ->
               mc ~src:r.id ~dsts:to_ ~n:(Array.length to_) msg))
      | Some Behavior.Equivocate | Some Behavior.Corrupt_execution | None ->
        mc ~src:r.id ~dsts:to_ ~n:(Array.length to_) msg)
  | None ->
    for i = 0 to Array.length to_ - 1 do
      send r ~dst:(Array.unsafe_get to_ i) msg
    done

let cancel_request_timer r digest =
  let i = Digest_map.index r.timers digest in
  if i >= 0 then begin
    Engine.cancel r.engine (Digest_map.value_at r.timers i);
    Digest_map.remove_at r.timers i
  end

let start_election_timer r digest =
  if not (Digest_map.mem r.timers digest) then
    Digest_map.set r.timers digest
      (Engine.schedule r.engine ~delay:r.config.election_timeout (fun () ->
           Digest_map.remove r.timers digest;
           if r.online && Digest_map.mem r.pending digest then begin
             (* Escalate past terms whose leader never answered. *)
             let new_term = max r.term r.voted + 1 in
             r.voted <- new_term;
             broadcast r ~to_:r.all_ids (Term_change { new_term; last_exec = r.last_exec })
           end))

let rid_slot r client =
  let len = Array.length r.rid_last in
  if client >= len then begin
    let ncap = ref (max 8 (2 * len)) in
    while client >= !ncap do
      ncap := 2 * !ncap
    done;
    let nlast = Array.make !ncap min_int in
    Array.blit r.rid_last 0 nlast 0 len;
    let nresult = Array.make !ncap 0L in
    Array.blit r.rid_result 0 nresult 0 len;
    r.rid_last <- nlast;
    r.rid_result <- nresult
  end;
  client

let rid_reset r = Array.fill r.rid_last 0 (Array.length r.rid_last) min_int

let reply_to_client r (request : Types.request) result =
  let corrupt =
    match Behavior.active_strategy r.behavior ~now:(Engine.now r.engine) with
    | Some Behavior.Corrupt_execution -> true
    | Some _ | None -> false
  in
  let result = if corrupt then Int64.logxor result 0xBADBADL else result in
  send r ~dst:request.Types.client
    (Reply { Types.client = request.Types.client; rid = request.Types.rid; result; replica = r.id })

let log_retention = 256

(* One agreed slot carries one request or (batching on) a whole batch;
   agreement keys on one digest either way. *)
let entry_digest (e : entry) =
  if e.batch != [] then Types.batch_digest e.batch else Types.request_digest e.request

(* Execute one request of an agreed slot: reply-cache dedup, execute,
   retire the pending entry and its election timer, answer the client. *)
let exec_one r (request : Types.request) =
  let client = request.Types.client and rid = request.Types.rid in
  let c = rid_slot r client in
  let result =
    if r.rid_last.(c) <> min_int && rid <= r.rid_last.(c) then r.rid_result.(c)
    else begin
      let result = App.execute r.app request.Types.payload in
      r.rid_last.(c) <- rid;
      r.rid_result.(c) <- result;
      result
    end
  in
  let digest = Types.request_digest request in
  Digest_map.remove r.pending digest;
  cancel_request_timer r digest;
  reply_to_client r request result

let rec try_execute r =
  let next = r.last_exec + 1 in
  let gate_ok =
    match r.cp with
    | Some cp when not !Checkpoint.test_ignore_watermarks -> next <= Checkpoint.high cp
    | Some _ | None -> true
  in
  let slot = Slot_ring.slot r.log next in
  if gate_ok && slot >= 0 then begin
    let e = Slot_ring.entry r.log slot in
    if e.committed && not e.executed then begin
      e.executed <- true;
      r.last_exec <- next;
      (match r.cp with
      | Some cp when r.chk >= 0 ->
        Check.exec_window ~session:r.chk ~replica:r.id ~seq:next ~low:(Checkpoint.low cp)
          ~high:(Checkpoint.high cp)
          ~faulty:(Behavior.is_faulty r.behavior)
      | Some _ | None -> ());
      if r.chk >= 0 then begin
        (* [-1] signers: followers apply leader decisions without a local
           certificate; the leader's quorum is checked in [on_accepted]. *)
        Check.commit ~session:r.chk ~replica:r.id ~view:r.term ~seq:r.last_exec
          ~digest:(entry_digest e) ~signers:(-1) ~quorum:(r.f + 1)
          ~faulty:(Behavior.is_faulty r.behavior);
        if e.batch != [] then begin
          let len = List.length e.batch in
          List.iteri
            (fun pos (req : Types.request) ->
              Check.batch_commit ~session:r.chk ~replica:r.id ~view:r.term ~seq:next ~pos ~len
                ~client:req.Types.client ~rid:req.Types.rid
                ~faulty:(Behavior.is_faulty r.behavior))
            e.batch
        end
      end;
      if e.batch != [] then List.iter (exec_one r) e.batch else exec_one r e.request;
      (match r.batcher with Some b -> Batcher.kick b | None -> ());
      (match r.cp with
      | None ->
        Slot_ring.release r.log (r.last_exec - log_retention);
        Slot_ring.prune_outside r.log ~low:(r.last_exec - log_retention)
          ~high:(r.last_exec + prune_margin)
      | Some cp -> (
        match
          Checkpoint.note_exec cp ~seq:next ~state:(App.state r.app) ~rid_last:r.rid_last
            ~rid_result:r.rid_result
        with
        | None -> ()
        | Some d ->
          broadcast r ~to_:r.peer_ids (Checkpoint_vote { seq = next; digest = d });
          on_cp_advance r cp (Checkpoint.note_vote cp ~seq:next ~digest:d ~voter:r.id)));
      try_execute r
    end
  end

(* A new stable checkpoint: truncate the log below the low watermark and
   retry execution in case the high watermark was the only obstacle. *)
and on_cp_advance r cp prev =
  if prev >= 0 then begin
    let lo = Checkpoint.low cp in
    for seq = prev + 1 to lo do
      Slot_ring.release r.log seq
    done;
    Slot_ring.prune_outside r.log ~low:(lo + 1) ~high:(Checkpoint.high cp + prune_margin);
    r.stats.Stats.checkpoints <- r.stats.Stats.checkpoints + 1;
    try_execute r
  end

let cancel_recover_timer r =
  match r.recover_timer with
  | Some h ->
    Engine.cancel r.engine h;
    r.recover_timer <- None
  | None -> ()

(* Fetch the latest certified checkpoint from the peers, re-asking on a
   request-timeout cadence until a transfer installs. *)
let start_recovery (r : replica) cp =
  Checkpoint.begin_recovery cp ~now:(Engine.now r.engine);
  let rec arm () =
    cancel_recover_timer r;
    r.recover_timer <-
      Some
        (Engine.schedule r.engine ~delay:r.config.request_timeout (fun () ->
             r.recover_timer <- None;
             if r.online && Checkpoint.recovering cp then begin
               broadcast r ~to_:r.peer_ids (Fetch_state { have = Checkpoint.low cp });
               arm ()
             end))
  in
  broadcast r ~to_:r.peer_ids (Fetch_state { have = Checkpoint.low cp });
  arm ()

let maybe_catchup r cp =
  if Checkpoint.needs_catchup cp && not (Checkpoint.recovering cp) then start_recovery r cp

(* The executed log suffix strictly above [from], ascending and gapless;
   stops early at the first missing or unexecuted slot. *)
let log_suffix (r : replica) ~from =
  let acc = ref [] in
  let seq = ref (from + 1) in
  let continue = ref true in
  while !continue && !seq <= r.last_exec do
    let slot = Slot_ring.slot r.log !seq in
    if slot >= 0 then begin
      let e = Slot_ring.entry r.log slot in
      if e.executed && (e.request != no_request || e.batch != []) then begin
        acc := (!seq, if e.batch != [] then e.batch else [ e.request ]) :: !acc;
        incr seq
      end
      else continue := false
    end
    else continue := false
  done;
  List.rev !acc

let on_fetch_state r ~src ~have =
  match r.cp with
  | None -> ()
  | Some cp -> (
    match
      Checkpoint.serve cp ~view:r.term ~have ~suffix:(log_suffix r ~from:(Checkpoint.low cp))
    with
    | Some chunks -> List.iter (fun c -> send r ~dst:src (State_chunk c)) chunks
    | None -> ())

let on_checkpoint_vote r ~src ~seq ~digest =
  match r.cp with
  | None -> ()
  | Some cp ->
    let prev = Checkpoint.note_vote cp ~seq ~digest ~voter:src in
    on_cp_advance r cp prev;
    maybe_catchup r cp

(* Install a completed, verified transfer: adopt the certified state and
   reply cache, replay the log suffix (no client replies -- the group
   already answered), and rejoin execution at the tip. *)
let install_transfer (r : replica) cp (c : Checkpoint.completion) =
  cancel_recover_timer r;
  let prev_low = Checkpoint.low cp in
  r.term <- max r.term c.Checkpoint.c_view;
  r.voted <- max r.voted r.term;
  App.set_state r.app c.Checkpoint.c_state;
  rid_reset r;
  List.iter
    (fun (client, rid, result) ->
      let i = rid_slot r client in
      r.rid_last.(i) <- rid;
      r.rid_result.(i) <- result)
    c.Checkpoint.c_rids;
  r.last_exec <- c.Checkpoint.c_cert.Checkpoint.cp_seq;
  Checkpoint.install cp c;
  List.iter
    (fun (seq, reqs) ->
      List.iter
        (fun (req : Types.request) ->
          let i = rid_slot r req.Types.client in
          if not (r.rid_last.(i) <> min_int && req.Types.rid <= r.rid_last.(i)) then begin
            let result = App.execute r.app req.Types.payload in
            r.rid_last.(i) <- req.Types.rid;
            r.rid_result.(i) <- result
          end)
        reqs;
      r.last_exec <- seq)
    c.Checkpoint.c_suffix;
  r.next_seq <- max r.next_seq (r.last_exec + 1);
  for s = prev_low + 1 to r.last_exec do
    Slot_ring.release r.log s
  done;
  Slot_ring.prune_outside r.log ~low:(Checkpoint.low cp + 1)
    ~high:(Checkpoint.high cp + prune_margin);
  r.stats.Stats.state_transfers <- r.stats.Stats.state_transfers + 1;
  r.stats.Stats.transfer_bytes <- r.stats.Stats.transfer_bytes + c.Checkpoint.c_bytes;
  r.stats.Stats.transfer_cycles <- r.stats.Stats.transfer_cycles + c.Checkpoint.c_elapsed;
  try_execute r

let on_state_chunk r ~src chunk =
  match r.cp with
  | None -> ()
  | Some cp -> (
    match Checkpoint.feed cp ~src ~now:(Engine.now r.engine) chunk with
    | None -> ()
    | Some c ->
      if r.chk >= 0 then
        Check.transfer_applied ~session:r.chk ~replica:r.id
          ~seq:c.Checkpoint.c_cert.Checkpoint.cp_seq
          ~claimed:c.Checkpoint.c_cert.Checkpoint.cp_digest ~actual:c.Checkpoint.c_actual
          ~faulty:(Behavior.is_faulty r.behavior);
      if
        (c.Checkpoint.c_valid || !Checkpoint.test_unverified_transfer)
        && c.Checkpoint.c_cert.Checkpoint.cp_seq > r.last_exec
      then install_transfer r cp c)

let order_request r (request : Types.request) =
  let digest = Types.request_digest request in
  if not (Digest_map.mem r.ordered digest) then begin
    let seq = r.next_seq in
    r.next_seq <- r.next_seq + 1;
    Digest_map.set r.ordered digest seq;
    let e, fresh = Slot_ring.bind r.log seq in
    if fresh then begin
      e.request <- request;
      e.acks <- Quorum.empty;
      e.committed <- false;
      e.executed <- false
    end;
    e.acks <- Quorum.add e.acks r.id;
    broadcast r ~to_:r.peer_ids (Accept { term = r.term; seq; request })
  end

(* Batched ordering: the whole list shares one slot, one Accept_b flight
   per follower, one ack round. [Batcher.seal] callers never hand over an
   empty or already-ordered list (the [on_request] dedup guard). *)
let order_batch r (requests : Types.request list) =
  if requests <> [] then begin
    let seq = r.next_seq in
    r.next_seq <- r.next_seq + 1;
    List.iter
      (fun (req : Types.request) -> Digest_map.set r.ordered (Types.request_digest req) seq)
      requests;
    let e, fresh = Slot_ring.bind r.log seq in
    if fresh then begin
      e.request <- no_request;
      e.batch <- requests;
      e.acks <- Quorum.empty;
      e.committed <- false;
      e.executed <- false
    end
    else e.batch <- requests;
    e.acks <- Quorum.add e.acks r.id;
    broadcast r ~to_:r.peer_ids (Accept_b { term = r.term; seq; requests })
  end

let adopt_new_term r ~term ~start_seq ~state ~rid_table =
  (match r.batcher with Some b -> Batcher.clear b | None -> ());
  (match r.cp with
  | Some cp ->
    cancel_recover_timer r;
    Checkpoint.rebase cp ~seq:(start_seq - 1)
  | None -> ());
  r.term <- term;
  r.voted <- max r.voted term;
  Slot_ring.reset r.log;
  Digest_map.reset r.ordered;
  App.set_state r.app state;
  r.last_exec <- start_seq - 1;
  r.next_seq <- start_seq;
  rid_reset r;
  List.iter
    (fun (client, (rid, result)) ->
      let c = rid_slot r client in
      r.rid_last.(c) <- rid;
      r.rid_result.(c) <- result)
    rid_table;
  Digest_map.iter (fun _ h -> Engine.cancel r.engine h) r.timers;
  Digest_map.reset r.timers;
  Digest_map.iter (fun digest _ -> start_election_timer r digest) r.pending

let rid_table_list r =
  let acc = ref [] in
  for c = Array.length r.rid_last - 1 downto 0 do
    if r.rid_last.(c) <> min_int then acc := (c, (r.rid_last.(c), r.rid_result.(c))) :: !acc
  done;
  !acc

let become_leader r ~term ~start_seq =
  let rid_table = rid_table_list r in
  let state = App.state r.app in
  adopt_new_term r ~term ~start_seq ~state ~rid_table;
  broadcast r ~to_:r.peer_ids (New_term { term; start_seq; state; rid_table });
  let pending = Digest_map.fold (fun _ req acc -> req :: acc) r.pending [] in
  let pending =
    List.sort
      (fun (a : Types.request) b ->
        compare (a.Types.client, a.Types.rid) (b.Types.client, b.Types.rid))
      pending
  in
  List.iter (order_request r) pending

let on_term_change r ~src ~new_term ~last_exec =
  if new_term > r.term then begin
    let voters =
      Quorum.Rounds.note r.election_rounds ~current:r.term ~view:new_term ~voter:src
        ~value:last_exec
    in
    if voters >= 1 && r.voted < new_term then begin
      (* Crash model: one timeout report is credible; join immediately. *)
      r.voted <- new_term;
      broadcast r ~to_:r.all_ids (Term_change { new_term; last_exec = r.last_exec })
    end;
    if voters >= r.f + 1 && leader_of ~term:new_term ~n:r.n = r.id then begin
      let max_exec = Quorum.Rounds.max_value r.election_rounds ~view:new_term ~default:r.last_exec in
      r.stats.Stats.view_changes <- r.stats.Stats.view_changes + 1;
      become_leader r ~term:new_term ~start_seq:(max_exec + 1)
    end
  end

let on_request r (request : Types.request) =
  let digest = Types.request_digest request in
  let client = request.Types.client in
  let c = rid_slot r client in
  if r.rid_last.(c) <> min_int && request.Types.rid <= r.rid_last.(c) then
    reply_to_client r request r.rid_result.(c)
  else begin
    let was_pending = Digest_map.mem r.pending digest in
    Digest_map.set r.pending digest request;
    if is_leader r then (
      match r.batcher with
      | Some b ->
        (* Retransmissions of a request already buffered (still pending)
           or already ordered must not enter a second batch. *)
        if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
      | None -> order_request r request)
    else begin
      send r ~dst:(leader_of ~term:r.term ~n:r.n) (Request request);
      start_election_timer r digest
    end
  end

let on_accept r ~src ~term ~seq ~request =
  if term = r.term && src = leader_of ~term ~n:r.n && not (is_leader r) then begin
    Digest_map.set r.pending (Types.request_digest request) request;
    let e, fresh = Slot_ring.bind r.log seq in
    if fresh then begin
      e.request <- request;
      e.acks <- Quorum.empty;
      e.committed <- false;
      e.executed <- false
    end;
    send r ~dst:src (Accepted { term; seq })
  end

let on_accept_b r ~src ~term ~seq ~requests =
  if term = r.term && src = leader_of ~term ~n:r.n && (not (is_leader r)) && requests <> [] then begin
    List.iter
      (fun (req : Types.request) -> Digest_map.set r.pending (Types.request_digest req) req)
      requests;
    let e, fresh = Slot_ring.bind r.log seq in
    if fresh then begin
      e.request <- no_request;
      e.batch <- requests;
      e.acks <- Quorum.empty;
      e.committed <- false;
      e.executed <- false
    end;
    send r ~dst:src (Accepted { term; seq })
  end

let on_accepted r ~src ~term ~seq =
  if term = r.term && is_leader r then begin
    let slot = Slot_ring.slot r.log seq in
    if slot >= 0 then begin
      let e = Slot_ring.entry r.log slot in
      if not e.committed then begin
        e.acks <- Quorum.add e.acks src;
        if Quorum.reached e.acks ~threshold:(r.f + 1) then begin
          e.committed <- true;
          if r.chk >= 0 then
            Check.commit ~session:r.chk ~replica:r.id ~view:r.term ~seq ~digest:(entry_digest e)
              ~signers:(Quorum.count e.acks)
              ~quorum:(r.f + 1)
              ~faulty:(Behavior.is_faulty r.behavior);
          broadcast r ~to_:r.peer_ids (Commit { term; seq });
          try_execute r
        end
      end
    end
  end

let on_commit r ~src ~term ~seq =
  if term = r.term && src = leader_of ~term ~n:r.n then begin
    let slot = Slot_ring.slot r.log seq in
    if slot >= 0 then begin
      (Slot_ring.entry r.log slot).committed <- true;
      try_execute r
    end
  end

let on_new_term r ~src ~term ~start_seq ~state ~rid_table =
  if term > r.term && src = leader_of ~term ~n:r.n then
    adopt_new_term r ~term ~start_seq ~state ~rid_table

let handle (r : replica) ~src msg =
  let now = Engine.now r.engine in
  if r.online && not (Behavior.is_crashed r.behavior ~now) then
    match msg with
    | Request request -> on_request r request
    | Accept { term; seq; request } -> on_accept r ~src ~term ~seq ~request
    | Accept_b { term; seq; requests } -> on_accept_b r ~src ~term ~seq ~requests
    | Accepted { term; seq } -> on_accepted r ~src ~term ~seq
    | Commit { term; seq } -> on_commit r ~src ~term ~seq
    | Term_change { new_term; last_exec } -> on_term_change r ~src ~new_term ~last_exec
    | New_term { term; start_seq; state; rid_table } ->
      on_new_term r ~src ~term ~start_seq ~state ~rid_table
    | Reply _ -> ()
    | Checkpoint_vote { seq; digest } -> on_checkpoint_vote r ~src ~seq ~digest
    | Fetch_state { have } -> on_fetch_state r ~src ~have
    | State_chunk chunk -> on_state_chunk r ~src chunk

let make_replica engine fabric config stats ~id ~behavior ~chk =
  let n = n_replicas config in
  {
    id;
    n;
    f = config.f;
    engine;
    fabric;
    config;
    behavior;
    app = App.accumulator ();
    stats;
    online = true;
    term = 0;
    next_seq = 1;
    last_exec = 0;
    log = Slot_ring.create ~capacity:(2 * log_retention) ~fresh:fresh_entry;
    ordered = Digest_map.create ~capacity:64 ();
    pending = Digest_map.create ();
    rid_last = Array.make (n + config.n_clients) min_int;
    rid_result = Array.make (n + config.n_clients) 0L;
    timers = Digest_map.create ~capacity:16 ();
    election_rounds = Quorum.Rounds.create ~n ();
    voted = 0;
    all_ids = Array.init n Fun.id;
    peer_ids = Array.init (n - 1) (fun i -> if i < id then i else i + 1);
    mcast = (if config.multicast then fabric.Transport.multicast else None);
    chk;
    cp =
      (match config.checkpoint with
      | Some c -> Some (Checkpoint.create c ~obs:(Engine.obs engine) ~quorum:(config.f + 1))
      | None -> None);
    recover_timer = None;
    batcher = None;
  }

(* Built after the replica record so the pipeline gate can read the live
   sequencing state: at most [pipeline_depth] agreement instances between
   the next proposal and the execution frontier, and never a proposal
   past the checkpoint high watermark. *)
let attach_batcher engine (r : replica) =
  match r.config.batching with
  | Some b when Batcher.active b ->
    let ready () =
      r.next_seq - r.last_exec - 1 < b.Types.pipeline_depth
      &&
      match r.cp with
      | Some cp when not !Checkpoint.test_ignore_watermarks -> r.next_seq <= Checkpoint.high cp
      | Some _ | None -> true
    in
    let occupancy () = r.next_seq - r.last_exec - 1 in
    r.batcher <-
      Some (Batcher.create ~engine ~cfg:b ~seal:(fun reqs -> order_batch r reqs) ~ready ~occupancy)
  | Some _ | None -> ()

let start engine fabric config ?behaviors () =
  let n = n_replicas config in
  Quorum.check_n n "Paxos.start";
  let chk = if !Check.enabled then Check.new_session ~protocol:"paxos" else -1 in
  let behaviors =
    match behaviors with
    | Some b ->
      if Array.length b <> n then invalid_arg "Paxos.start: behaviors must cover every replica";
      b
    | None -> Array.make n Behavior.honest
  in
  if fabric.Transport.n_endpoints < n + config.n_clients then
    invalid_arg "Paxos.start: fabric too small";
  let stats = Stats.create () in
  let replicas =
    Array.init n (fun id -> make_replica engine fabric config stats ~id ~behavior:behaviors.(id) ~chk)
  in
  Array.iter
    (fun r ->
      attach_batcher engine r;
      fabric.Transport.set_handler r.id (fun ~src msg -> handle r ~src msg))
    replicas;
  let clients =
    Array.init config.n_clients (fun i ->
        Client.create engine fabric ~id:(n + i) ~n_replicas:n ~quorum:1
          ~retry_timeout:config.request_timeout ~stats
          ~to_msg:(fun request -> Request request)
          ~of_msg:(function Reply reply -> Some reply | _ -> None)
          ())
  in
  { engine; config; replicas; clients; shared_stats = stats }

let submit t ~client ~payload =
  if client < 0 || client >= Array.length t.clients then invalid_arg "Paxos.submit: unknown client";
  Client.submit t.clients.(client) ~payload

let stats t = t.shared_stats

let term t ~replica = t.replicas.(replica).term

let replica_state t ~replica = App.state t.replicas.(replica).app

let set_replica_state t ~replica state = App.set_state t.replicas.(replica).app state

let replica_online t ~replica = t.replicas.(replica).online

let set_offline t ~replica =
  let r = t.replicas.(replica) in
  r.online <- false;
  (match r.batcher with Some b -> Batcher.clear b | None -> ());
  cancel_recover_timer r;
  Digest_map.iter (fun _ h -> Engine.cancel r.engine h) r.timers;
  Digest_map.reset r.timers

(* Legacy model: free state copy from the most advanced online peer. *)
let legacy_rejoin t (r : replica) =
  begin
    let best = ref None in
    Array.iter
      (fun peer ->
        if peer.id <> r.id && peer.online then
          match !best with
          | Some b when b.last_exec >= peer.last_exec -> ()
          | Some _ | None -> best := Some peer)
      t.replicas;
    match !best with
    | Some peer ->
      r.term <- peer.term;
      r.voted <- max r.voted peer.term;
      r.last_exec <- peer.last_exec;
      r.next_seq <- peer.last_exec + 1;
      App.set_state r.app (App.state peer.app);
      rid_reset r;
      for c = 0 to Array.length peer.rid_last - 1 do
        if peer.rid_last.(c) <> min_int then begin
          let i = rid_slot r c in
          r.rid_last.(i) <- peer.rid_last.(c);
          r.rid_result.(i) <- peer.rid_result.(c)
        end
      done;
      Slot_ring.reset r.log;
      Digest_map.reset r.ordered;
      Digest_map.reset r.pending
    | None -> ()
  end

let set_online t ~replica =
  let r = t.replicas.(replica) in
  if not r.online then begin
    r.online <- true;
    match r.cp with
    | Some cp ->
      (* Rejuvenation wiped the replica: rejoin by certified transfer
         instead of a free peer copy. *)
      r.term <- 0;
      r.voted <- 0;
      r.last_exec <- 0;
      r.next_seq <- 1;
      App.set_state r.app 0L;
      rid_reset r;
      Slot_ring.reset r.log;
      Digest_map.reset r.ordered;
      Digest_map.reset r.pending;
      Checkpoint.reset cp;
      start_recovery r cp
    | None -> legacy_rejoin t r
  end
