module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior
module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry
module Ring = Resoc_obs.Ring
module Check = Resoc_check.Check

type msg =
  | Request of Types.request
  | Pre_prepare of { view : int; seq : int; digest : Hash.t; request : Types.request }
  | Pre_prepare_b of { view : int; seq : int; digest : Hash.t; requests : Types.request list }
      (* Batched ordering: one instance covers the whole request list
         (digest = Types.batch_digest). One NoC flight per destination
         carries every payload; Prepare/Commit are unchanged. *)
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
   sequence number claims the slot — every field is mutable and the
   absent request is a physical sentinel, so steady-state agreement
   allocates nothing per slot. *)
type entry = {
  mutable e_view : int;
  mutable digest : Hash.t;
  mutable request : Types.request;  (* == no_request when unknown *)
  mutable batch : Types.request list;  (* batched instance payloads; [] = unbatched *)
  mutable prepares : Quorum.t;
  mutable commits : Quorum.t;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable executed : bool;
}

let no_request : Types.request = { Types.client = -1; rid = -1; payload = 0L }

let fresh_entry _ =
  {
    e_view = -1;
    digest = Hash.zero;
    request = no_request;
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
  mutable view : int;
  mutable next_seq : int;  (* next sequence number to assign (when primary) *)
  mutable last_exec : int;
  log : entry Slot_ring.t;  (* seq -> entry (current view only) *)
  ordered : int Digest_map.t;  (* digest -> seq, current view *)
  pending : Types.request Digest_map.t;  (* seen, not yet executed *)
  mutable rid_last : int array;  (* client -> last rid, min_int = none *)
  mutable rid_result : int64 array;  (* client -> cached result *)
  timers : Engine.handle Digest_map.t;
  vc_rounds : Quorum.Rounds.t;  (* view -> voter -> last_exec *)
  mutable vc_voted : int;  (* highest view we voted for *)
  all_ids : int array;  (* 0 .. n-1 *)
  peer_ids : int array;  (* 0 .. n-1 minus self *)
  mcast : (src:int -> dsts:int array -> n:int -> msg -> unit) option;
      (* fabric multicast, resolved once; None = per-destination sends *)
  mutable batcher : Batcher.t option;  (* Some iff config.batching is active *)
  obs : Obs.t;
  obs_vc : int;
  chk : int;  (* resoc_check session, -1 when checking is off *)
  cp : Checkpoint.t option;  (* None = checkpointing disabled (default) *)
  mutable recover_timer : Engine.handle option;  (* Fetch_state retry while recovering *)
}

type t = {
  engine : Engine.t;
  fabric : msg Transport.fabric;
  config : config;
  replicas : replica array;
  clients : msg Client.t array;
  shared_stats : Stats.t;
}

let message_name = function
  | Request _ -> "request"
  | Pre_prepare _ -> "pre-prepare"
  | Pre_prepare_b _ -> "pre-prepare-batch"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Reply _ -> "reply"
  | View_change _ -> "view-change"
  | New_view _ -> "new-view"
  | Checkpoint_vote _ -> "checkpoint-vote"
  | Fetch_state _ -> "fetch-state"
  | State_chunk _ -> "state-chunk"

let primary_of ~view ~n = view mod n

let is_primary (r : replica) = primary_of ~view:r.view ~n:r.n = r.id

(* Sending honours the replica's behaviour: crashed/offline replicas are
   mute; Silent Byzantine replicas too; Delay holds messages back. *)
let send (r : replica) ~dst msg =
  let now = Engine.now r.engine in
  if r.online && not (Behavior.is_crashed r.behavior ~now) then
    match Behavior.active_strategy r.behavior ~now with
    | Some Behavior.Silent -> ()
    | Some (Behavior.Delay d) ->
      ignore (Engine.schedule r.engine ~delay:d (fun () -> r.fabric.Transport.send ~src:r.id ~dst msg))
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

(* The entry tracking [seq], creating it (reset in place) on first
   touch. Returns [null_entry] when the slot holds a stale-view entry;
   the message is ignored. *)
let entry_for r ~view ~seq ~digest =
  let e, fresh = Slot_ring.bind r.log seq in
  if fresh then begin
    e.e_view <- view;
    e.digest <- digest;
    e.request <- no_request;
    e.batch <- [];
    e.prepares <- Quorum.empty;
    e.commits <- Quorum.empty;
    e.sent_commit <- false;
    e.committed <- false;
    e.executed <- false;
    if !Obs.trace_on then
      Ring.async_begin r.obs.Obs.ring ~time:(Engine.now r.engine) ~cat:Obs.Cat.repl
        ~id:(Obs.repl_counter_span ~replica:r.id ~counter:seq)
        ~arg:0;
    e
  end
  else if e.e_view = view then e
  else null_entry  (* stale view entry at this slot; ignore the message *)

let cancel_request_timer r digest =
  let i = Digest_map.index r.timers digest in
  if i >= 0 then begin
    Engine.cancel r.engine (Digest_map.value_at r.timers i);
    Digest_map.remove_at r.timers i
  end

(* rid bookkeeping lives in parallel arrays indexed by client id; the
   arrays grow on demand since fabrics number clients after replicas. *)
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

(* Without checkpointing, executed entries older than this many slots
   are pruned on a fixed retention window. With checkpointing enabled
   (config.checkpoint = Some _), truncation is instead gated by the
   stable-checkpoint low watermark so the retained suffix can always be
   served to a recovering replica. *)
let log_retention = 256

(* Outlier bound for overflow pruning: seqs this far outside the live
   window are corrupt (SEU-flipped counters), never executable, and
   would otherwise accumulate in the overflow array for the whole run. *)
let prune_margin = 1 lsl 15

(* An entry carries its payload once the Pre_prepare (single or batched)
   arrived; until then Prepare/Commit quorums may gather but nothing can
   commit or execute. *)
let entry_filled (e : entry) = e.request != no_request || e.batch != []

(* Per-request execution tail, shared by single and batched instances:
   exactly-once via the rid cache, pending/timer cleanup, reply. *)
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
  if !Obs.trace_on then
    Ring.async_end r.obs.Obs.ring ~time:(Engine.now r.engine) ~cat:Obs.Cat.repl
      ~id:(Obs.repl_request_span ~replica:r.id ~client ~rid)
      ~arg:0;
  reply_to_client r request result

(* Execute committed entries in sequence order. The rid table provides
   exactly-once semantics per client and caches the last reply. With
   checkpointing on, execution additionally (a) refuses to pass the
   high watermark, (b) snapshots and votes at checkpoint boundaries,
   and (c) defers log truncation to stable-checkpoint advances. *)
let rec try_execute r =
  let seq = r.last_exec + 1 in
  let gate_ok =
    match r.cp with
    | Some cp when not !Checkpoint.test_ignore_watermarks -> seq <= Checkpoint.high cp
    | Some _ | None -> true
  in
  if gate_ok then begin
    let slot = Slot_ring.slot r.log seq in
    if slot >= 0 then begin
      let e = Slot_ring.entry r.log slot in
      if e.committed && (not e.executed) && entry_filled e then begin
        (match r.cp with
        | Some cp when r.chk >= 0 ->
          Check.exec_window ~session:r.chk ~replica:r.id ~seq ~low:(Checkpoint.low cp)
            ~high:(Checkpoint.high cp)
            ~faulty:(Behavior.is_faulty r.behavior)
        | Some _ | None -> ());
        e.executed <- true;
        r.last_exec <- r.last_exec + 1;
        if !Obs.trace_on then
          Ring.async_end r.obs.Obs.ring ~time:(Engine.now r.engine) ~cat:Obs.Cat.repl
            ~id:(Obs.repl_counter_span ~replica:r.id ~counter:r.last_exec)
            ~arg:0;
        if e.batch != [] then List.iter (exec_one r) e.batch else exec_one r e.request;
        (match r.batcher with Some b -> Batcher.kick b | None -> ());
        (match r.cp with
        | None ->
          Slot_ring.release r.log (r.last_exec - log_retention);
          Slot_ring.prune_outside r.log ~low:(r.last_exec - log_retention)
            ~high:(r.last_exec + prune_margin)
        | Some cp -> (
          match
            Checkpoint.note_exec cp ~seq:r.last_exec ~state:(App.state r.app)
              ~rid_last:r.rid_last ~rid_result:r.rid_result
          with
          | Some d ->
            broadcast r ~to_:r.peer_ids (Checkpoint_vote { seq = r.last_exec; digest = d });
            let prev = Checkpoint.note_vote cp ~seq:r.last_exec ~digest:d ~voter:r.id in
            on_cp_advance r cp prev
          | None -> ()));
        try_execute r
      end
    end
  end

(* A checkpoint certificate completed and the low watermark moved from
   [prev] (or [prev < 0]: no advance). Truncate the covered log prefix,
   sweep corrupt-seq outliers out of the overflow array, and resume
   execution in case it was parked at the old high watermark. *)
and on_cp_advance r cp prev =
  if prev >= 0 then begin
    let lo = Checkpoint.low cp in
    for s = prev + 1 to lo do
      Slot_ring.release r.log s
    done;
    Slot_ring.prune_outside r.log ~low:(lo + 1) ~high:(Checkpoint.high cp + prune_margin);
    r.stats.Stats.checkpoints <- r.stats.Stats.checkpoints + 1;
    (* The high watermark moved: parked batches may seal now. *)
    (match r.batcher with Some b -> Batcher.kick b | None -> ());
    try_execute r
  end

(* --- certified state transfer --- *)

let cancel_recover_timer r =
  match r.recover_timer with
  | Some h ->
    Engine.cancel r.engine h;
    r.recover_timer <- None
  | None -> ()

(* Fetch the latest certified checkpoint from the peers, re-asking on a
   request-timeout cadence until a transfer installs (peers serving
   nothing — e.g. no stable checkpoint yet — stay silent). *)
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

(* Transfer by certificate whenever the group provably moved past us:
   triggered by [set_online] after a wipe and by a checkpoint
   certificate forming on a boundary we never executed. *)
let maybe_catchup r cp =
  if Checkpoint.needs_catchup cp && not (Checkpoint.recovering cp) then start_recovery r cp

(* The executed log suffix strictly above [from], ascending and
   gapless; stops early at the first missing or unexecuted slot (the
   receiver then lands slightly behind and catches up normally). *)
let log_suffix r ~from =
  let acc = ref [] in
  let seq = ref (from + 1) in
  let continue = ref true in
  while !continue && !seq <= r.last_exec do
    let slot = Slot_ring.slot r.log !seq in
    if slot >= 0 then begin
      let e = Slot_ring.entry r.log slot in
      if e.executed && entry_filled e then begin
        acc := (!seq, (if e.batch != [] then e.batch else [ e.request ])) :: !acc;
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
    match Checkpoint.serve cp ~view:r.view ~have ~suffix:(log_suffix r ~from:(Checkpoint.low cp)) with
    | Some chunks -> List.iter (fun c -> send r ~dst:src (State_chunk c)) chunks
    | None -> ())

let on_checkpoint_vote r ~src ~seq ~digest =
  match r.cp with
  | None -> ()
  | Some cp ->
    let prev = Checkpoint.note_vote cp ~seq ~digest ~voter:src in
    on_cp_advance r cp prev;
    maybe_catchup r cp

(* Install a completed, verified transfer: adopt the certified state
   and reply cache, replay the log suffix (no client replies — the
   group already answered), and rejoin execution at the tip. *)
let install_transfer r cp (c : Checkpoint.completion) =
  cancel_recover_timer r;
  let prev_low = Checkpoint.low cp in
  r.view <- max r.view c.Checkpoint.c_view;
  r.vc_voted <- max r.vc_voted r.view;
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
      then install_transfer r cp c
      (* Invalid or stale: stay recovering; the retry timer re-fetches. *))

let try_commit r ~seq (e : entry) =
  if (not e.committed)
     && Quorum.reached e.commits ~threshold:((2 * r.f) + 1)
     && Quorum.reached e.prepares ~threshold:((2 * r.f) + 1)
     && entry_filled e
  then begin
    e.committed <- true;
    if r.chk >= 0 then begin
      Check.commit ~session:r.chk ~replica:r.id ~view:r.view ~seq ~digest:e.digest
        ~signers:(Quorum.count e.commits)
        ~quorum:((2 * r.f) + 1)
        ~faulty:(Behavior.is_faulty r.behavior);
      if e.batch != [] then begin
        let len = List.length e.batch in
        List.iteri
          (fun pos (req : Types.request) ->
            Check.batch_commit ~session:r.chk ~replica:r.id ~view:r.view ~seq ~pos ~len
              ~client:req.Types.client ~rid:req.Types.rid
              ~faulty:(Behavior.is_faulty r.behavior))
          e.batch
      end
    end;
    try_execute r
  end

let send_commit_if_prepared r ~seq (e : entry) =
  if (not e.sent_commit) && entry_filled e
     && Quorum.reached e.prepares ~threshold:((2 * r.f) + 1)
  then begin
    e.sent_commit <- true;
    e.commits <- Quorum.add e.commits r.id;
    broadcast r ~to_:r.peer_ids (Commit { view = r.view; seq; digest = e.digest });
    try_commit r ~seq e
  end

(* --- view changes --- *)

let start_vc_timer r digest =
  if not (Digest_map.mem r.timers digest) then
    Digest_map.set r.timers digest
      (Engine.schedule r.engine ~delay:r.config.vc_timeout (fun () ->
           Digest_map.remove r.timers digest;
           if r.online && Digest_map.mem r.pending digest then begin
             (* Escalate past views whose primary never answered. *)
             let new_view = max r.view r.vc_voted + 1 in
             r.vc_voted <- new_view;
             broadcast r ~to_:r.all_ids (View_change { new_view; last_exec = r.last_exec })
           end))

let order_request r (request : Types.request) =
  let digest = Types.request_digest request in
  if not (Digest_map.mem r.ordered digest) then begin
    let seq = r.next_seq in
    r.next_seq <- r.next_seq + 1;
    Digest_map.set r.ordered digest seq;
    if !Obs.trace_on then
      Ring.instant r.obs.Obs.ring ~time:(Engine.now r.engine) ~cat:Obs.Cat.repl
        ~id:(Obs.repl_event ~replica:r.id ~code:Obs.code_pre_prepare)
        ~arg:seq;
    let equivocating =
      match Behavior.active_strategy r.behavior ~now:(Engine.now r.engine) with
      | Some Behavior.Equivocate -> true
      | Some _ | None -> false
    in
    let e = entry_for r ~view:r.view ~seq ~digest in
    if e != null_entry then begin
      e.request <- request;
      e.prepares <- Quorum.add e.prepares r.id
    end;
    let backups = r.peer_ids in
    let lies = r.f + 1 in
    for i = 0 to Array.length backups - 1 do
      let digest' =
        (* An equivocating primary tells half the backups a different
           story. The truthful half is too small to form a 2f+1 quorum,
           so the slot stalls until a view change evicts the primary. *)
        if equivocating && i < lies then Hash.combine digest (Hash.of_string "lie") else digest
      in
      send r ~dst:backups.(i) (Pre_prepare { view = r.view; seq; digest = digest'; request })
    done
  end

(* Batched twin of [order_request]: one sequence number covers the whole
   batch, agreed under its batch digest, shipped as one (multicast-able)
   flight per destination. Dedup happened on the way into the batcher, so
   the sealed list is ordered verbatim — which is what lets the
   [Batcher.test_duplicate_first] mutant actually reach agreement. *)
let order_batch r (requests : Types.request list) =
  if requests <> [] then begin
    let digest = Types.batch_digest requests in
    let seq = r.next_seq in
    r.next_seq <- r.next_seq + 1;
    List.iter
      (fun (req : Types.request) -> Digest_map.set r.ordered (Types.request_digest req) seq)
      requests;
    if !Obs.trace_on then
      Ring.instant r.obs.Obs.ring ~time:(Engine.now r.engine) ~cat:Obs.Cat.repl
        ~id:(Obs.repl_event ~replica:r.id ~code:Obs.code_pre_prepare)
        ~arg:seq;
    let equivocating =
      match Behavior.active_strategy r.behavior ~now:(Engine.now r.engine) with
      | Some Behavior.Equivocate -> true
      | Some _ | None -> false
    in
    let e = entry_for r ~view:r.view ~seq ~digest in
    if e != null_entry then begin
      e.batch <- requests;
      e.prepares <- Quorum.add e.prepares r.id
    end;
    let backups = r.peer_ids in
    if equivocating then begin
      let lies = r.f + 1 in
      for i = 0 to Array.length backups - 1 do
        let digest' = if i < lies then Hash.combine digest (Hash.of_string "lie") else digest in
        send r ~dst:backups.(i) (Pre_prepare_b { view = r.view; seq; digest = digest'; requests })
      done
    end
    else broadcast r ~to_:backups (Pre_prepare_b { view = r.view; seq; digest; requests })
  end

let adopt_new_view r ~view ~start_seq ~state ~rid_table =
  (match r.batcher with Some b -> Batcher.clear b | None -> ());
  r.view <- view;
  r.vc_voted <- max r.vc_voted view;
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
  (* Forget cached replies consistent with the transferred state only;
     pending requests restart their patience. *)
  Digest_map.iter (fun _ h -> Engine.cancel r.engine h) r.timers;
  Digest_map.reset r.timers;
  (* The new view is a fresh proof baseline: watermarks rebase onto the
     adopted last_exec and any in-flight transfer becomes stale. *)
  (match r.cp with
  | Some cp ->
    cancel_recover_timer r;
    Checkpoint.rebase cp ~seq:(start_seq - 1)
  | None -> ());
  Digest_map.iter (fun digest _ -> start_vc_timer r digest) r.pending

let rid_table_list r =
  let acc = ref [] in
  for c = Array.length r.rid_last - 1 downto 0 do
    if r.rid_last.(c) <> min_int then acc := (c, (r.rid_last.(c), r.rid_result.(c))) :: !acc
  done;
  !acc

let become_primary r ~view ~start_seq =
  let rid_table = rid_table_list r in
  let state = App.state r.app in
  adopt_new_view r ~view ~start_seq ~state ~rid_table;
  broadcast r ~to_:r.peer_ids (New_view { view; start_seq; state; rid_table });
  (* Re-propose everything still pending, deterministically ordered. *)
  let pending = Digest_map.fold (fun _ req acc -> req :: acc) r.pending [] in
  let pending =
    List.sort
      (fun (a : Types.request) b -> compare (a.Types.client, a.Types.rid) (b.Types.client, b.Types.rid))
      pending
  in
  List.iter (order_request r) pending

let on_view_change r ~src ~new_view ~last_exec =
  if new_view > r.view then begin
    let voters =
      Quorum.Rounds.note r.vc_rounds ~current:r.view ~view:new_view ~voter:src ~value:last_exec
    in
    (* Join the view change once f+1 replicas are committed to it: at least
       one of them is honest, so the timeout was genuine. *)
    if voters >= r.f + 1 && r.vc_voted < new_view then begin
      r.vc_voted <- new_view;
      broadcast r ~to_:r.all_ids (View_change { new_view; last_exec = r.last_exec })
    end;
    if voters >= (2 * r.f) + 1 && primary_of ~view:new_view ~n:r.n = r.id then begin
      let max_exec = Quorum.Rounds.max_value r.vc_rounds ~view:new_view ~default:r.last_exec in
      r.stats.Stats.view_changes <- r.stats.Stats.view_changes + 1;
      if !Obs.metrics_on then Registry.incr r.obs.Obs.metrics r.obs_vc;
      if !Obs.trace_on then
        Ring.instant r.obs.Obs.ring ~time:(Engine.now r.engine) ~cat:Obs.Cat.repl
          ~id:(Obs.repl_event ~replica:r.id ~code:Obs.code_view_change)
          ~arg:new_view;
      become_primary r ~view:new_view ~start_seq:(max_exec + 1)
    end
  end

(* --- message handling --- *)

let on_request r (request : Types.request) =
  let digest = Types.request_digest request in
  let client = request.Types.client in
  let c = rid_slot r client in
  if r.rid_last.(c) <> min_int && request.Types.rid <= r.rid_last.(c) then
    (* Already executed: re-send the cached reply. *)
    reply_to_client r request r.rid_result.(c)
  else begin
    if !Obs.trace_on && not (Digest_map.mem r.pending digest) then
      Ring.async_begin r.obs.Obs.ring ~time:(Engine.now r.engine) ~cat:Obs.Cat.repl
        ~id:(Obs.repl_request_span ~replica:r.id ~client ~rid:request.Types.rid)
        ~arg:0;
    let was_pending = Digest_map.mem r.pending digest in
    Digest_map.set r.pending digest request;
    if is_primary r then (
      match r.batcher with
      | Some b ->
        (* A retransmission of a request that is already buffered here or
           ordered-but-unexecuted must not enter a second batch; pending
           membership covers exactly that interval. *)
        if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
      | None -> order_request r request)
    else begin
      (* Forward to the primary and watch it. *)
      send r ~dst:(primary_of ~view:r.view ~n:r.n) (Request request);
      start_vc_timer r digest
    end
  end

let on_pre_prepare r ~src ~view ~seq ~digest ~request =
  if view = r.view && src = primary_of ~view ~n:r.n && not (is_primary r) then begin
    if Hash.equal digest (Types.request_digest request) then begin
      Digest_map.set r.pending (Types.request_digest request) request;
      let e = entry_for r ~view ~seq ~digest in
      if e != null_entry && Hash.equal e.digest digest then begin
        e.request <- request;
        e.prepares <- Quorum.add e.prepares src;
        (* our own prepare vote *)
        if not (Quorum.mem e.prepares r.id) then begin
          e.prepares <- Quorum.add e.prepares r.id;
          broadcast r ~to_:r.peer_ids (Prepare { view; seq; digest })
        end;
        send_commit_if_prepared r ~seq e
      end
    end
    else begin
      (* Digest mismatch: an equivocating or corrupt primary. Keep the
         request pending and let the timer push a view change. *)
      Digest_map.set r.pending (Types.request_digest request) request;
      start_vc_timer r (Types.request_digest request)
    end
  end

let on_pre_prepare_b r ~src ~view ~seq ~digest ~requests =
  if view = r.view && src = primary_of ~view ~n:r.n && (not (is_primary r)) && requests <> []
  then begin
    if Hash.equal digest (Types.batch_digest requests) then begin
      List.iter
        (fun (req : Types.request) -> Digest_map.set r.pending (Types.request_digest req) req)
        requests;
      let e = entry_for r ~view ~seq ~digest in
      if e != null_entry && Hash.equal e.digest digest then begin
        e.batch <- requests;
        e.prepares <- Quorum.add e.prepares src;
        if not (Quorum.mem e.prepares r.id) then begin
          e.prepares <- Quorum.add e.prepares r.id;
          broadcast r ~to_:r.peer_ids (Prepare { view; seq; digest })
        end;
        send_commit_if_prepared r ~seq e
      end
    end
    else
      (* Batch digest mismatch: equivocating or corrupt primary. Watch
         every carried request; the timers push a view change. *)
      List.iter
        (fun (req : Types.request) ->
          Digest_map.set r.pending (Types.request_digest req) req;
          start_vc_timer r (Types.request_digest req))
        requests
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
  if view > r.view && src = primary_of ~view ~n:r.n then adopt_new_view r ~view ~start_seq ~state ~rid_table

let handle (r : replica) ~src msg =
  let now = Engine.now r.engine in
  if r.online && not (Behavior.is_crashed r.behavior ~now) then
    match msg with
    | Request request -> on_request r request
    | Pre_prepare { view; seq; digest; request } -> on_pre_prepare r ~src ~view ~seq ~digest ~request
    | Pre_prepare_b { view; seq; digest; requests } ->
      on_pre_prepare_b r ~src ~view ~seq ~digest ~requests
    | Prepare { view; seq; digest } -> on_prepare r ~src ~view ~seq ~digest
    | Commit { view; seq; digest } -> on_commit r ~src ~view ~seq ~digest
    | View_change { new_view; last_exec } -> on_view_change r ~src ~new_view ~last_exec
    | New_view { view; start_seq; state; rid_table } ->
      on_new_view r ~src ~view ~start_seq ~state ~rid_table
    | Checkpoint_vote { seq; digest } -> on_checkpoint_vote r ~src ~seq ~digest
    | Fetch_state { have } -> on_fetch_state r ~src ~have
    | State_chunk chunk -> on_state_chunk r ~src chunk
    | Reply _ -> ()

(* --- system assembly --- *)

let make_replica engine fabric config stats ~id ~behavior ~chk =
  let obs = Engine.obs engine in
  let obs_vc =
    if !Obs.metrics_on then Registry.counter obs.Obs.metrics "repl.view_changes" else 0
  in
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
    view = 0;
    next_seq = 1;
    last_exec = 0;
    log = Slot_ring.create ~capacity:(2 * log_retention) ~fresh:fresh_entry;
    ordered = Digest_map.create ~capacity:64 ();
    pending = Digest_map.create ();
    rid_last = Array.make (n + config.n_clients) min_int;
    rid_result = Array.make (n + config.n_clients) 0L;
    timers = Digest_map.create ~capacity:16 ();
    vc_rounds = Quorum.Rounds.create ~n ();
    vc_voted = 0;
    all_ids = Array.init n Fun.id;
    peer_ids = Array.init (n - 1) (fun i -> if i < id then i else i + 1);
    mcast = (if config.multicast then fabric.Transport.multicast else None);
    batcher = None;
    obs;
    obs_vc;
    chk;
    cp =
      (match config.checkpoint with
      | Some c -> Some (Checkpoint.create c ~obs ~quorum:((2 * config.f) + 1))
      | None -> None);
    recover_timer = None;
  }

(* The batcher closures need the replica record, so it is attached after
   construction. An inactive (armed-but-unused) batching config creates
   no batcher at all: the ordering path stays the legacy one, event for
   event. *)
let attach_batcher engine (r : replica) =
  match r.config.batching with
  | Some b when Batcher.active b ->
    let ready () =
      r.next_seq - r.last_exec - 1 < b.Types.pipeline_depth
      && (match r.cp with
         | Some cp when not !Checkpoint.test_ignore_watermarks -> r.next_seq <= Checkpoint.high cp
         | Some _ | None -> true)
    in
    let occupancy () = r.next_seq - r.last_exec - 1 in
    r.batcher <-
      Some (Batcher.create ~engine ~cfg:b ~seal:(fun reqs -> order_batch r reqs) ~ready ~occupancy)
  | Some _ | None -> ()

let start engine fabric config ?behaviors () =
  let n = n_replicas config in
  Quorum.check_n n "Pbft.start";
  let chk = if !Check.enabled then Check.new_session ~protocol:"pbft" else -1 in
  let behaviors =
    match behaviors with
    | Some b ->
      if Array.length b <> n then invalid_arg "Pbft.start: behaviors must cover every replica";
      b
    | None -> Array.make n Behavior.honest
  in
  if fabric.Transport.n_endpoints < n + config.n_clients then
    invalid_arg "Pbft.start: fabric too small";
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
        Client.create engine fabric ~id:(n + i) ~n_replicas:n ~quorum:(config.f + 1)
          ~retry_timeout:config.request_timeout ~stats
          ~to_msg:(fun request -> Request request)
          ~of_msg:(function Reply reply -> Some reply | _ -> None)
          ())
  in
  { engine; fabric; config; replicas; clients; shared_stats = stats }

let submit t ~client ~payload =
  if client < 0 || client >= Array.length t.clients then invalid_arg "Pbft.submit: unknown client";
  Client.submit t.clients.(client) ~payload

let stats t = t.shared_stats

let view t ~replica = t.replicas.(replica).view

let replica_state t ~replica = App.state t.replicas.(replica).app

let set_replica_state t ~replica state = App.set_state t.replicas.(replica).app state

let replica_online t ~replica = t.replicas.(replica).online

let set_offline t ~replica =
  let r = t.replicas.(replica) in
  r.online <- false;
  Digest_map.iter (fun _ h -> Engine.cancel r.engine h) r.timers;
  Digest_map.reset r.timers;
  (match r.batcher with Some b -> Batcher.clear b | None -> ());
  cancel_recover_timer r

let set_online t ~replica =
  let r = t.replicas.(replica) in
  if not r.online then begin
    r.online <- true;
    match r.cp with
    | Some cp ->
      (* Rejuvenation wiped the replica: restart from nothing and rejoin
         by fetching the latest certified checkpoint plus log suffix
         from the peers — state is earned, not received for free. *)
      r.view <- 0;
      r.vc_voted <- 0;
      r.last_exec <- 0;
      r.next_seq <- 1;
      App.set_state r.app 0L;
      rid_reset r;
      Slot_ring.reset r.log;
      Digest_map.reset r.ordered;
      Digest_map.reset r.pending;
      Checkpoint.reset cp;
      start_recovery r cp
    | None -> (
      (* Legacy model: free state copy from the most advanced online
         peer (the hand-waved post-reconfiguration fetch). *)
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
        r.view <- peer.view;
        r.vc_voted <- max r.vc_voted peer.view;
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
      | None -> ())
  end
