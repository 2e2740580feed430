module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Keychain = Resoc_crypto.Keychain
module Behavior = Resoc_fault.Behavior
module Register = Resoc_hw.Register
module Trinc = Resoc_hybrid.Trinc
module Monotonic = Resoc_hybrid.Usig.Monotonic
module Check = Resoc_check.Check

type msg =
  | Request of Types.request
  | Prepare of { view : int; request : Types.request; cert : Trinc.attestation }
  | Prepare_b of { view : int; requests : Types.request list; cert : Trinc.attestation }
  | Commit of {
      view : int;
      request : Types.request;
      primary_cert : Trinc.attestation;
      cert : Trinc.attestation;
    }
  | Commit_b of {
      view : int;
      requests : Types.request list;
      primary_cert : Trinc.attestation;
      cert : Trinc.attestation;
    }
  | Update of { view : int; upto : int64; state : int64; rid_table : (int * (int * int64)) list }
  | Activate of { new_view : int }
  | New_view of { view : int; base : int64; state : int64; rid_table : (int * (int * int64)) list }
  | Reply of Types.reply
  | Checkpoint_vote of { seq : int; digest : Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  f : int;
  n_clients : int;
  request_timeout : int;
  vc_timeout : int;
  update_period : int;
  trinc_protection : Register.protection;
  keychain_master : int64;
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
    update_period = 2_000;
    trinc_protection = Register.Secded;
    keychain_master = 0x17E4C0L;
    checkpoint = None;
    multicast = false;
    batching = None;
  }

let n_replicas config = (2 * config.f) + 1
let n_active_initial config = config.f + 1

(* Pooled in the slot ring, reset in place per counter; commit votes are
   a quorum bitset. *)
type entry = {
  mutable request : Types.request;
  mutable batch : Types.request list;  (* non-empty iff the counter agreed a batch *)
  mutable commit_votes : Quorum.t;
  mutable executed : bool;
}

let no_request : Types.request = { Types.client = -1; rid = -1; payload = 0L }

let fresh_entry _ =
  { request = no_request; batch = []; commit_votes = Quorum.empty; executed = false }

let log_retention = 256

type replica = {
  id : int;
  n : int;
  f : int;
  engine : Engine.t;
  fabric : msg Transport.fabric;
  config : config;
  behavior : Behavior.t;
  app : App.t;
  trinc : Trinc.t;
  keychain : Keychain.t;
  stats : Stats.t;
  mutable view : int;
  mutable is_active : bool;
  mutable transitioned : bool;
  mutable last_exec_counter : int64;
  log : entry Slot_ring.t;
  ordered : int Digest_map.t;
  pending : Types.request Digest_map.t;
  mutable rid_last : int array;  (* client -> last rid, min_int = none *)
  mutable rid_result : int64 array;
  timers : Engine.handle Digest_map.t;
  mono : Monotonic.checker;
  baseline_pending : bool array;  (* per-signer counter resync after transition *)
  vc_rounds : Quorum.Rounds.t;
  mutable vc_voted : int;
  all_ids : int array;
  all_others : int array;  (* everyone but self *)
  initial_active_others : int array;  (* ids 0..f minus self *)
  initial_passive : int array;  (* ids f+1..n-1 *)
  mcast : (src:int -> dsts:int array -> n:int -> msg -> unit) option;
      (* fabric multicast, resolved once; None = per-destination sends *)
  mutable gap_drops : int;
  mutable last_shipped : int64;
  repeat_counts : (int * int, int) Hashtbl.t;  (* (client, rid) -> cached-reply resends *)
  chk : int;  (* resoc_check session, -1 when checking is off *)
  mutable online : bool;
  cp : Checkpoint.t option;  (* active-set checkpoint certificates, None = legacy *)
  mutable recover_timer : Engine.handle option;
  mutable batcher : Batcher.t option;  (* primary-side batching, None = legacy *)
}

type t = {
  engine : Engine.t;
  config : config;
  replicas : replica array;
  clients : msg Client.t array;
  shared_stats : Stats.t;
  keychain : Keychain.t;
}

let message_name = function
  | Request _ -> "request"
  | Prepare _ -> "prepare"
  | Prepare_b _ -> "prepare-batch"
  | Commit _ -> "commit"
  | Commit_b _ -> "commit-batch"
  | Update _ -> "update"
  | Activate _ -> "activate"
  | New_view _ -> "new-view"
  | Reply _ -> "reply"
  | Checkpoint_vote _ -> "checkpoint-vote"
  | Fetch_state _ -> "fetch-state"
  | State_chunk _ -> "state-chunk"

(* Forward bound for overflow pruning on the legacy path: anything this far
   past the execution frontier is an outlier that will never execute. *)
let prune_margin = 1 lsl 15

let primary_of ~view ~n = view mod n

let is_primary (r : replica) = primary_of ~view:r.view ~n:r.n = r.id

let empty_ids : int array = [||]

(* The replicas that participate in agreement right now: the initial f+1
   active ones, or everyone after a transition. Activeness is tracked per
   replica, so views during/after the transition stay consistent. *)
let active_others r = if r.transitioned then r.all_others else r.initial_active_others

let passive_ids (r : replica) = if r.transitioned then empty_ids else r.initial_passive

(* Fault-free quorum: every active replica (f+1 of f+1). After a
   transition: f+1 of 2f+1. Either way the count is f+1. *)
let commit_quorum (r : replica) = r.f + 1

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

(* Any replica that sees a request starve votes to transition/rotate. *)
let start_vc_timer r digest =
  if not (Digest_map.mem r.timers digest) then
    Digest_map.set r.timers digest
      (Engine.schedule r.engine ~delay:r.config.vc_timeout (fun () ->
           Digest_map.remove r.timers digest;
           if Digest_map.mem r.pending digest then begin
             (* Escalate past views whose primary never answered: repeated
                timeouts propose ever-higher views until a live primary is
                reached. *)
             let new_view = max r.view r.vc_voted + 1 in
             r.vc_voted <- new_view;
             broadcast r ~to_:r.all_ids (Activate { new_view })
           end))

let reply_to_client r (request : Types.request) result =
  let corrupt =
    match Behavior.active_strategy r.behavior ~now:(Engine.now r.engine) with
    | Some Behavior.Corrupt_execution -> true
    | Some _ | None -> false
  in
  let result = if corrupt then Int64.logxor result 0xBADBADL else result in
  send r ~dst:request.Types.client
    (Reply { Types.client = request.Types.client; rid = request.Types.rid; result; replica = r.id })

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

let rid_table_list r =
  let acc = ref [] in
  for c = Array.length r.rid_last - 1 downto 0 do
    if r.rid_last.(c) <> min_int then acc := (c, (r.rid_last.(c), r.rid_result.(c))) :: !acc
  done;
  !acc

(* One agreed counter carries one request or (batching on) a whole batch;
   the attestation binds one digest either way. *)
let entry_digest (e : entry) =
  if e.batch != [] then Types.batch_digest e.batch else Types.request_digest e.request

(* Execute one request of an agreed counter: reply-cache dedup, execute,
   retire the pending entry and its view-change timer, answer the client. *)
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
  let next = Int64.add r.last_exec_counter 1L in
  let next_i = Int64.to_int next in
  let gate_ok =
    match r.cp with
    | Some cp when not !Checkpoint.test_ignore_watermarks -> next_i <= Checkpoint.high cp
    | Some _ | None -> true
  in
  let slot = Slot_ring.slot r.log next_i in
  if gate_ok && slot >= 0 then begin
    let e = Slot_ring.entry r.log slot in
    if (not e.executed) && Quorum.reached e.commit_votes ~threshold:(commit_quorum r) then begin
      e.executed <- true;
      r.last_exec_counter <- next;
      (match r.cp with
      | Some cp when r.chk >= 0 ->
        Check.exec_window ~session:r.chk ~replica:r.id ~seq:next_i ~low:(Checkpoint.low cp)
          ~high:(Checkpoint.high cp)
          ~faulty:(Behavior.is_faulty r.behavior)
      | Some _ | None -> ());
      if r.chk >= 0 then begin
        Check.commit ~session:r.chk ~replica:r.id ~view:r.view ~seq:next_i
          ~digest:(entry_digest e)
          ~signers:(Quorum.count e.commit_votes)
          ~quorum:(commit_quorum r)
          ~faulty:(Behavior.is_faulty r.behavior);
        if e.batch != [] then begin
          let len = List.length e.batch in
          List.iteri
            (fun pos (req : Types.request) ->
              Check.batch_commit ~session:r.chk ~replica:r.id ~view:r.view ~seq:next_i ~pos ~len
                ~client:req.Types.client ~rid:req.Types.rid
                ~faulty:(Behavior.is_faulty r.behavior))
            e.batch
        end
      end;
      if e.batch != [] then List.iter (exec_one r) e.batch else exec_one r e.request;
      (match r.batcher with Some b -> Batcher.kick b | None -> ());
      (match r.cp with
      | None ->
        Slot_ring.release r.log (next_i - log_retention);
        Slot_ring.prune_outside r.log ~low:(next_i - log_retention) ~high:(next_i + prune_margin)
      | Some cp -> (
        match
          Checkpoint.note_exec cp ~seq:next_i ~state:(App.state r.app) ~rid_last:r.rid_last
            ~rid_result:r.rid_result
        with
        | None -> ()
        | Some d ->
          broadcast r ~to_:(active_others r) (Checkpoint_vote { seq = next_i; digest = d });
          on_cp_advance r cp (Checkpoint.note_vote cp ~seq:next_i ~digest:d ~voter:r.id)));
      try_execute r
    end
  end

(* A new stable checkpoint: truncate the log below the low watermark (the
   certificate now proves everything up to it) and retry execution in case
   the high watermark was the only obstacle. *)
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
   request-timeout cadence until a transfer installs. Only actives hold
   stable certificates, but the rejoiner does not know who is active, so
   it asks everyone; passives simply have nothing to serve. *)
let start_recovery (r : replica) cp =
  Checkpoint.begin_recovery cp ~now:(Engine.now r.engine);
  let rec arm () =
    cancel_recover_timer r;
    r.recover_timer <-
      Some
        (Engine.schedule r.engine ~delay:r.config.request_timeout (fun () ->
             r.recover_timer <- None;
             if r.online && Checkpoint.recovering cp then begin
               broadcast r ~to_:r.all_others (Fetch_state { have = Checkpoint.low cp });
               arm ()
             end))
  in
  broadcast r ~to_:r.all_others (Fetch_state { have = Checkpoint.low cp });
  arm ()

let maybe_catchup r cp =
  if Checkpoint.needs_catchup cp && not (Checkpoint.recovering cp) then start_recovery r cp

(* The executed log suffix strictly above [from], ascending and gapless;
   stops early at the first missing or unexecuted counter. *)
let log_suffix (r : replica) ~from =
  let acc = ref [] in
  let seq = ref (from + 1) in
  let continue = ref true in
  while !continue && !seq <= Int64.to_int r.last_exec_counter do
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
  | Some cp when r.is_active -> (
    match Checkpoint.serve cp ~view:r.view ~have ~suffix:(log_suffix r ~from:(Checkpoint.low cp)) with
    | Some chunks -> List.iter (fun c -> send r ~dst:src (State_chunk c)) chunks
    | None -> ())
  | Some _ -> ()

let on_checkpoint_vote r ~src ~seq ~digest =
  match r.cp with
  | None -> ()
  | Some cp when r.is_active ->
    let prev = Checkpoint.note_vote cp ~seq ~digest ~voter:src in
    on_cp_advance r cp prev;
    maybe_catchup r cp
  | Some _ -> ()

(* Install a completed, verified transfer: adopt the certified state and
   reply cache, replay the log suffix (no client replies — the group
   already answered), and rejoin in the role the serving view implies:
   after a transition everyone is active, before it the initial split
   stands. The TrInc counter is trusted hardware and survived the wipe,
   so peers re-baseline this signer instead of seeing a replay. *)
let install_transfer (r : replica) cp (c : Checkpoint.completion) =
  cancel_recover_timer r;
  let prev_low = Checkpoint.low cp in
  r.view <- max r.view c.Checkpoint.c_view;
  r.vc_voted <- max r.vc_voted r.view;
  if c.Checkpoint.c_view > 0 then begin
    r.transitioned <- true;
    r.is_active <- true
  end;
  App.set_state r.app c.Checkpoint.c_state;
  rid_reset r;
  List.iter
    (fun (client, rid, result) ->
      let i = rid_slot r client in
      r.rid_last.(i) <- rid;
      r.rid_result.(i) <- result)
    c.Checkpoint.c_rids;
  r.last_exec_counter <- Int64.of_int c.Checkpoint.c_cert.Checkpoint.cp_seq;
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
      r.last_exec_counter <- Int64.of_int seq)
    c.Checkpoint.c_suffix;
  r.last_shipped <- r.last_exec_counter;
  for s = prev_low + 1 to Int64.to_int r.last_exec_counter do
    Slot_ring.release r.log s
  done;
  Slot_ring.prune_outside r.log ~low:(Checkpoint.low cp + 1)
    ~high:(Checkpoint.high cp + prune_margin);
  Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
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
        && Int64.compare (Int64.of_int c.Checkpoint.c_cert.Checkpoint.cp_seq) r.last_exec_counter
           > 0
      then install_transfer r cp c)

let attestation_digest digest = Hash.combine (Hash.of_string "cheap-stmt") digest

(* TrInc attestation with counter = exactly previous+1 plays the role of a
   USIG UI; [Trinc.attest] enforces non-decrease in the hybrid, and
   verifiers check the +1 step, which rules out both reuse and gaps. *)
let make_cert r digest =
  let next = Int64.add (fst (Resoc_hw.Register.read (Trinc.counter_register r.trinc))) 1L in
  Trinc.attest r.trinc ~new_counter:next ~digest:(attestation_digest digest)

let verify_cert (r : replica) ~digest (a : Trinc.attestation) =
  Trinc.verify ~key:(Keychain.component r.keychain a.Trinc.signer) a
  && Hash.equal a.Trinc.digest (attestation_digest digest)
  && Int64.equal a.Trinc.current (Int64.add a.Trinc.previous 1L)

let continuity_ok r ~signer ~counter =
  if r.baseline_pending.(signer) then begin
    (* First attestation since the transition: adopt it as the baseline. *)
    r.baseline_pending.(signer) <- false;
    Monotonic.force r.mono ~signer ~counter;
    true
  end
  else
    match Monotonic.check r.mono ~signer ~counter with
    | Monotonic.Accept -> true
    | Monotonic.Replay -> false
    | Monotonic.Gap _ ->
      r.gap_drops <- r.gap_drops + 1;
      false

let note_entry r ~counter ~request ~voter =
  let entry, fresh = Slot_ring.bind r.log (Int64.to_int counter) in
  if fresh then begin
    entry.request <- request;
    entry.batch <- [];
    entry.commit_votes <- Quorum.empty;
    entry.executed <- false
  end;
  entry.commit_votes <- Quorum.add entry.commit_votes voter;
  entry

let note_entry_b r ~counter ~requests ~voter =
  let entry, fresh = Slot_ring.bind r.log (Int64.to_int counter) in
  if fresh then begin
    entry.request <- no_request;
    entry.batch <- requests;
    entry.commit_votes <- Quorum.empty;
    entry.executed <- false
  end;
  entry.commit_votes <- Quorum.add entry.commit_votes voter;
  entry

let send_own_commit r ~view ~request ~(primary_cert : Trinc.attestation) =
  let digest = Types.request_digest request in
  match make_cert r digest with
  | Error _ -> ()
  | Ok cert ->
    ignore (note_entry r ~counter:primary_cert.Trinc.current ~request ~voter:r.id);
    broadcast r ~to_:(active_others r) (Commit { view; request; primary_cert; cert });
    try_execute r

let send_own_commit_b r ~view ~requests ~(primary_cert : Trinc.attestation) =
  let digest = Types.batch_digest requests in
  match make_cert r digest with
  | Error _ -> ()
  | Ok cert ->
    ignore (note_entry_b r ~counter:primary_cert.Trinc.current ~requests ~voter:r.id);
    broadcast r ~to_:(active_others r) (Commit_b { view; requests; primary_cert; cert });
    try_execute r

let order_request r (request : Types.request) =
  let digest = Types.request_digest request in
  if not (Digest_map.mem r.ordered digest) then
    match make_cert r digest with
    | Error _ -> ()
    | Ok cert ->
      Digest_map.set r.ordered digest 0;
      ignore (note_entry r ~counter:cert.Trinc.current ~request ~voter:r.id);
      broadcast r ~to_:(active_others r) (Prepare { view = r.view; request; cert });
      try_execute r

(* Batched ordering: one TrInc attestation covers the whole list (the
   counter advances once per batch), one Prepare_b flight per active
   peer. [Batcher.seal] callers never hand over an empty or
   already-ordered list (the [on_request] dedup guard). *)
let order_batch r (requests : Types.request list) =
  if requests <> [] then
    match make_cert r (Types.batch_digest requests) with
    | Error _ -> ()
    | Ok cert ->
      List.iter
        (fun (req : Types.request) -> Digest_map.set r.ordered (Types.request_digest req) 0)
        requests;
      ignore (note_entry_b r ~counter:cert.Trinc.current ~requests ~voter:r.id);
      broadcast r ~to_:(active_others r) (Prepare_b { view = r.view; requests; cert });
      try_execute r

(* Actives ship attested state to the passive set periodically; one sender
   (the primary) suffices in the fault-free case. *)
let ship_updates r =
  if is_primary r && (not r.transitioned) && Int64.compare r.last_exec_counter r.last_shipped > 0
  then begin
    r.last_shipped <- r.last_exec_counter;
    let rid_table = rid_table_list r in
    let passive = passive_ids r in
    for i = 0 to Array.length passive - 1 do
      send r ~dst:passive.(i)
        (Update { view = r.view; upto = r.last_exec_counter; state = App.state r.app; rid_table })
    done
  end

let adopt_new_view r ~view ~base ~state ~rid_table =
  (match r.batcher with Some b -> Batcher.clear b | None -> ());
  (match r.cp with
  | Some cp ->
    cancel_recover_timer r;
    Checkpoint.rebase cp ~seq:(Int64.to_int base)
  | None -> ());
  r.view <- view;
  r.vc_voted <- max r.vc_voted view;
  r.transitioned <- true;
  r.is_active <- true;
  Slot_ring.reset r.log;
  Digest_map.reset r.ordered;
  App.set_state r.app state;
  r.last_exec_counter <- base;
  rid_reset r;
  List.iter
    (fun (client, (rid, result)) ->
      let c = rid_slot r client in
      r.rid_last.(c) <- rid;
      r.rid_result.(c) <- result)
    rid_table;
  Digest_map.iter (fun _ h -> Engine.cancel r.engine h) r.timers;
  Digest_map.reset r.timers;
  Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
  Digest_map.iter (fun digest _ -> start_vc_timer r digest) r.pending

let become_primary r ~view =
  let rid_table = rid_table_list r in
  let state = App.state r.app in
  let base = fst (Resoc_hw.Register.read (Trinc.counter_register r.trinc)) in
  adopt_new_view r ~view ~base ~state ~rid_table;
  broadcast r ~to_:r.all_others (New_view { view; base; state; rid_table });
  let pending = Digest_map.fold (fun _ req acc -> req :: acc) r.pending [] in
  let pending =
    List.sort
      (fun (a : Types.request) b ->
        compare (a.Types.client, a.Types.rid) (b.Types.client, b.Types.rid))
      pending
  in
  List.iter (order_request r) pending

let on_activate r ~src ~new_view =
  if new_view > r.view then begin
    let voters =
      Quorum.Rounds.note r.vc_rounds ~current:r.view ~view:new_view ~voter:src ~value:0
    in
    if voters >= r.f + 1 then begin
      if r.vc_voted < new_view then begin
        r.vc_voted <- new_view;
        broadcast r ~to_:r.all_ids (Activate { new_view })
      end;
      if primary_of ~view:new_view ~n:r.n = r.id then begin
        r.stats.Stats.view_changes <- r.stats.Stats.view_changes + 1;
        become_primary r ~view:new_view
      end
    end
  end

(* A client re-asking for an already-executed request means it could not
   assemble an f+1 reply quorum — with only f+1 executing replicas, that is
   evidence one of them is lying (CheapBFT's PANIC case). *)
let note_repeat r ~client ~rid =
  let key = (client, rid) in
  let n = 1 + (match Hashtbl.find_opt r.repeat_counts key with Some n -> n | None -> 0) in
  Hashtbl.replace r.repeat_counts key n;
  if n >= 3 && not r.transitioned then begin
    let new_view = r.view + 1 in
    if new_view > r.vc_voted then begin
      r.vc_voted <- new_view;
      broadcast r ~to_:r.all_ids (Activate { new_view })
    end
  end

let on_request r (request : Types.request) =
  let digest = Types.request_digest request in
  let client = request.Types.client in
  let c = rid_slot r client in
  if r.rid_last.(c) <> min_int && request.Types.rid <= r.rid_last.(c) then begin
    note_repeat r ~client ~rid:request.Types.rid;
    reply_to_client r request r.rid_result.(c)
  end
  else begin
    let was_pending = Digest_map.mem r.pending digest in
    Digest_map.set r.pending digest request;
    (* Every replica — the primary included — watches the request: in the
       all-active configuration a single silent active denies the quorum,
       and someone must call for the transition. *)
    start_vc_timer r digest;
    if is_primary r && r.is_active then (
      match r.batcher with
      | Some b ->
        (* Retransmissions of a request already buffered (still pending)
           or already ordered must not enter a second batch. *)
        if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
      | None -> order_request r request)
    else send r ~dst:(primary_of ~view:r.view ~n:r.n) (Request request)
  end

let on_prepare r ~src ~view ~request ~(cert : Trinc.attestation) =
  if view = r.view && r.is_active && src = primary_of ~view ~n:r.n
     && cert.Trinc.signer = src
  then begin
    let digest = Types.request_digest request in
    if verify_cert r ~digest cert && continuity_ok r ~signer:src ~counter:cert.Trinc.current
    then begin
      Digest_map.set r.pending digest request;
      ignore (note_entry r ~counter:cert.Trinc.current ~request ~voter:src);
      send_own_commit r ~view ~request ~primary_cert:cert
    end
    else if Digest_map.mem r.pending digest then start_vc_timer r digest
  end

let on_prepare_b r ~src ~view ~requests ~(cert : Trinc.attestation) =
  if view = r.view && r.is_active && src = primary_of ~view ~n:r.n
     && cert.Trinc.signer = src && requests <> []
  then begin
    let digest = Types.batch_digest requests in
    if verify_cert r ~digest cert && continuity_ok r ~signer:src ~counter:cert.Trinc.current
    then begin
      List.iter
        (fun (req : Types.request) -> Digest_map.set r.pending (Types.request_digest req) req)
        requests;
      ignore (note_entry_b r ~counter:cert.Trinc.current ~requests ~voter:src);
      send_own_commit_b r ~view ~requests ~primary_cert:cert
    end
    else
      List.iter
        (fun (req : Types.request) ->
          let d = Types.request_digest req in
          if Digest_map.mem r.pending d then start_vc_timer r d)
        requests
  end

let on_commit r ~src ~view ~request ~(primary_cert : Trinc.attestation)
    ~(cert : Trinc.attestation) =
  if view = r.view && r.is_active && cert.Trinc.signer = src
     && primary_cert.Trinc.signer = primary_of ~view ~n:r.n
  then begin
    let digest = Types.request_digest request in
    if verify_cert r ~digest primary_cert && verify_cert r ~digest cert
       && continuity_ok r ~signer:src ~counter:cert.Trinc.current
    then begin
      ignore
        (note_entry r ~counter:primary_cert.Trinc.current ~request
           ~voter:primary_cert.Trinc.signer);
      ignore (note_entry r ~counter:primary_cert.Trinc.current ~request ~voter:src);
      try_execute r
    end
  end

let on_commit_b r ~src ~view ~requests ~(primary_cert : Trinc.attestation)
    ~(cert : Trinc.attestation) =
  if view = r.view && r.is_active && cert.Trinc.signer = src
     && primary_cert.Trinc.signer = primary_of ~view ~n:r.n
     && requests <> []
  then begin
    let digest = Types.batch_digest requests in
    if verify_cert r ~digest primary_cert && verify_cert r ~digest cert
       && continuity_ok r ~signer:src ~counter:cert.Trinc.current
    then begin
      ignore
        (note_entry_b r ~counter:primary_cert.Trinc.current ~requests
           ~voter:primary_cert.Trinc.signer);
      ignore (note_entry_b r ~counter:primary_cert.Trinc.current ~requests ~voter:src);
      try_execute r
    end
  end

let on_update r ~view ~upto ~state ~rid_table =
  if (not r.is_active) && view >= r.view && Int64.compare upto r.last_exec_counter > 0 then begin
    r.last_exec_counter <- upto;
    App.set_state r.app state;
    rid_reset r;
    List.iter
      (fun (client, (rid, result)) ->
        let c = rid_slot r client in
        r.rid_last.(c) <- rid;
        r.rid_result.(c) <- result)
      rid_table;
    (* Requests the actives already served are no longer pending here. *)
    let served (req : Types.request) =
      let c = req.Types.client in
      c < Array.length r.rid_last && r.rid_last.(c) <> min_int && req.Types.rid <= r.rid_last.(c)
    in
    let stale =
      Digest_map.fold (fun digest req acc -> if served req then digest :: acc else acc) r.pending []
    in
    List.iter
      (fun digest ->
        Digest_map.remove r.pending digest;
        cancel_request_timer r digest)
      stale
  end

let on_new_view r ~src ~view ~base ~state ~rid_table =
  if view > r.view && src = primary_of ~view ~n:r.n then
    adopt_new_view r ~view ~base ~state ~rid_table

let handle (r : replica) ~src msg =
  let now = Engine.now r.engine in
  if r.online && not (Behavior.is_crashed r.behavior ~now) then
    match msg with
    | Request request -> on_request r request
    | Prepare { view; request; cert } -> on_prepare r ~src ~view ~request ~cert
    | Prepare_b { view; requests; cert } -> on_prepare_b r ~src ~view ~requests ~cert
    | Commit { view; request; primary_cert; cert } ->
      on_commit r ~src ~view ~request ~primary_cert ~cert
    | Commit_b { view; requests; primary_cert; cert } ->
      on_commit_b r ~src ~view ~requests ~primary_cert ~cert
    | Update { view; upto; state; rid_table } -> on_update r ~view ~upto ~state ~rid_table
    | Activate { new_view } -> on_activate r ~src ~new_view
    | New_view { view; base; state; rid_table } -> on_new_view r ~src ~view ~base ~state ~rid_table
    | Reply _ -> ()
    | Checkpoint_vote { seq; digest } -> on_checkpoint_vote r ~src ~seq ~digest
    | Fetch_state { have } -> on_fetch_state r ~src ~have
    | State_chunk chunk -> on_state_chunk r ~src chunk

let make_replica engine fabric config keychain stats ~id ~behavior ~chk =
  let n = n_replicas config in
  let f = config.f in
  {
    id;
    n;
    f;
    engine;
    fabric;
    config;
    behavior;
    app = App.accumulator ();
    trinc =
      Trinc.create ~id ~key:(Keychain.component keychain id) ~protection:config.trinc_protection;
    keychain;
    stats;
    view = 0;
    is_active = id <= config.f;
    transitioned = false;
    last_exec_counter = 0L;
    log = Slot_ring.create ~capacity:(2 * log_retention) ~fresh:fresh_entry;
    ordered = Digest_map.create ~capacity:64 ();
    pending = Digest_map.create ();
    rid_last = Array.make (n + config.n_clients) min_int;
    rid_result = Array.make (n + config.n_clients) 0L;
    timers = Digest_map.create ~capacity:16 ();
    mono = Monotonic.create ();
    baseline_pending = Array.make n false;
    vc_rounds = Quorum.Rounds.create ~n ();
    vc_voted = 0;
    gap_drops = 0;
    last_shipped = 0L;
    repeat_counts = Hashtbl.create 8;
    all_ids = Array.init n Fun.id;
    all_others = Array.init (n - 1) (fun i -> if i < id then i else i + 1);
    initial_active_others =
      (let act = List.filter (fun i -> i <> id) (List.init (f + 1) Fun.id) in
       Array.of_list act);
    initial_passive = Array.init (n - f - 1) (fun i -> f + 1 + i);
    mcast = (if config.multicast then fabric.Transport.multicast else None);
    chk;
    online = true;
    cp =
      (match config.checkpoint with
      | Some c -> Some (Checkpoint.create c ~obs:(Engine.obs engine) ~quorum:(config.f + 1))
      | None -> None);
    recover_timer = None;
    batcher = None;
  }

(* Built after the replica record so the pipeline gate can read the live
   sequencing state: the TrInc counter is the sequence number here, so
   in-flight instances = attested counter − execution frontier, and no
   attestation may step past the checkpoint high watermark. *)
let attach_batcher engine (r : replica) =
  match r.config.batching with
  | Some b when Batcher.active b ->
    let attested () = Int64.to_int (fst (Register.read (Trinc.counter_register r.trinc))) in
    let ready () =
      let a = attested () in
      a - Int64.to_int r.last_exec_counter < b.Types.pipeline_depth
      &&
      match r.cp with
      | Some cp when not !Checkpoint.test_ignore_watermarks -> a + 1 <= Checkpoint.high cp
      | Some _ | None -> true
    in
    let occupancy () = attested () - Int64.to_int r.last_exec_counter in
    r.batcher <-
      Some (Batcher.create ~engine ~cfg:b ~seal:(fun reqs -> order_batch r reqs) ~ready ~occupancy)
  | Some _ | None -> ()

let start engine fabric config ?behaviors () =
  let n = n_replicas config in
  Quorum.check_n n "Cheapbft.start";
  let chk = if !Check.enabled then Check.new_session ~protocol:"cheapbft" else -1 in
  let behaviors =
    match behaviors with
    | Some b ->
      if Array.length b <> n then invalid_arg "Cheapbft.start: behaviors must cover every replica";
      b
    | None -> Array.make n Behavior.honest
  in
  if fabric.Transport.n_endpoints < n + config.n_clients then
    invalid_arg "Cheapbft.start: fabric too small";
  let keychain = Keychain.create ~master:config.keychain_master ~n in
  let stats = Stats.create () in
  let replicas =
    Array.init n (fun id ->
        make_replica engine fabric config keychain stats ~id ~behavior:behaviors.(id) ~chk)
  in
  Array.iter
    (fun r ->
      attach_batcher engine r;
      fabric.Transport.set_handler r.id (fun ~src msg -> handle r ~src msg);
      Engine.every engine ~period:config.update_period (fun () -> ship_updates r))
    replicas;
  let clients =
    Array.init config.n_clients (fun i ->
        Client.create engine fabric ~id:(n + i) ~n_replicas:n ~quorum:(config.f + 1)
          ~retry_timeout:config.request_timeout ~stats
          ~to_msg:(fun request -> Request request)
          ~of_msg:(function Reply reply -> Some reply | _ -> None)
          ())
  in
  { engine; config; replicas; clients; shared_stats = stats; keychain }

let submit t ~client ~payload =
  if client < 0 || client >= Array.length t.clients then
    invalid_arg "Cheapbft.submit: unknown client";
  Client.submit t.clients.(client) ~payload

let stats t = t.shared_stats

let view t ~replica = t.replicas.(replica).view
let replica_state t ~replica = App.state t.replicas.(replica).app
let active t ~replica = t.replicas.(replica).is_active
let transitioned t = Array.exists (fun r -> r.transitioned) t.replicas
let trinc t ~replica = t.replicas.(replica).trinc

let replica_online t ~replica = t.replicas.(replica).online

let set_offline t ~replica =
  let r = t.replicas.(replica) in
  if r.online then begin
    r.online <- false;
    (match r.batcher with Some b -> Batcher.clear b | None -> ());
    cancel_recover_timer r;
    Digest_map.iter (fun _ h -> Engine.cancel t.engine h) r.timers;
    Digest_map.reset r.timers
  end

(* Legacy model: free state copy from the most advanced online peer. *)
let legacy_rejoin t (r : replica) =
  let best = ref None in
  Array.iter
    (fun (peer : replica) ->
      if peer.id <> r.id && peer.online then
        match !best with
        | Some (b : replica) when Int64.compare b.last_exec_counter peer.last_exec_counter >= 0 ->
          ()
        | Some _ | None -> best := Some peer)
    t.replicas;
  match !best with
  | Some peer ->
    r.view <- peer.view;
    r.vc_voted <- max r.vc_voted peer.view;
    r.transitioned <- peer.transitioned;
    r.is_active <- (if peer.transitioned then true else r.id <= r.f);
    r.last_exec_counter <- peer.last_exec_counter;
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
    Digest_map.reset r.pending;
    Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true
  | None -> ()

let set_online t ~replica =
  let r = t.replicas.(replica) in
  if not r.online then begin
    r.online <- true;
    match r.cp with
    | Some cp ->
      (* Rejuvenation wiped the replica's untrusted state (the TrInc
         counter is hardware and persists): rejoin by certified
         transfer instead of a free peer copy. *)
      r.view <- 0;
      r.vc_voted <- 0;
      r.transitioned <- false;
      r.is_active <- r.id <= r.f;
      r.last_exec_counter <- 0L;
      r.last_shipped <- 0L;
      App.set_state r.app 0L;
      rid_reset r;
      Slot_ring.reset r.log;
      Digest_map.reset r.ordered;
      Digest_map.reset r.pending;
      Hashtbl.reset r.repeat_counts;
      Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
      Checkpoint.reset cp;
      start_recovery r cp
    | None -> legacy_rejoin t r
  end
