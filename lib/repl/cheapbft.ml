module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Keychain = Resoc_crypto.Keychain
module Behavior = Resoc_fault.Behavior
module Register = Resoc_hw.Register
module Trinc = Resoc_hybrid.Trinc
module Monotonic = Resoc_hybrid.Usig.Monotonic
module Check = Resoc_check.Check
module Core = Replica_core

type msg =
  | Request of Types.request
  | Prepare_b of { view : int; requests : Types.request list; cert : Trinc.attestation }
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
  mutable batch : Types.request list;  (* the requests agreed at this counter *)
  mutable commit_votes : Quorum.t;
  mutable executed : bool;
}

let fresh_entry _ = { batch = []; commit_votes = Quorum.empty; executed = false }

type replica = {
  core : msg Core.t;
  f : int;
  config : config;
  trinc : Trinc.t;
  keychain : Keychain.t;
  mutable view : int;
  mutable is_active : bool;
  mutable transitioned : bool;
  mutable last_exec_counter : int64;
  log : entry Slot_ring.t;
  ordered : int Digest_map.t;
  mono : Monotonic.checker;
  baseline_pending : bool array;  (* per-signer counter resync after transition *)
  vc_rounds : Quorum.Rounds.t;
  mutable vc_voted : int;
  initial_active_others : int array;  (* ids 0..f minus self *)
  initial_passive : int array;  (* ids f+1..n-1 *)
  mutable gap_drops : int;
  mutable last_shipped : int64;
  repeat_counts : (int * int, int) Hashtbl.t;  (* (client, rid) -> cached-reply resends *)
}

type t = { replicas : replica array; clients : msg Client.t array; shared_stats : Stats.t }

let primary_of ~view ~n = view mod n

let is_primary (r : replica) = primary_of ~view:r.view ~n:r.core.n = r.core.id

let empty_ids : int array = [||]

(* The replicas that participate in agreement right now: the initial f+1
   active ones, or everyone after a transition. Activeness is tracked per
   replica, so views during/after the transition stay consistent. *)
let active_others r = if r.transitioned then r.core.peer_ids else r.initial_active_others

let passive_ids (r : replica) = if r.transitioned then empty_ids else r.initial_passive

(* Fault-free quorum: every active replica (f+1 of f+1). After a
   transition: f+1 of 2f+1. Either way the count is f+1. *)
let commit_quorum (r : replica) = r.f + 1

(* Any replica that sees a request starve votes to transition/rotate,
   escalating past views whose primary never answered: repeated timeouts
   propose ever-higher views until a live primary is reached. *)
let escalate r () =
  let new_view = max r.view r.vc_voted + 1 in
  r.vc_voted <- new_view;
  Core.broadcast r.core ~to_:r.core.all_ids (Activate { new_view })

let rec try_execute r =
  let c = r.core in
  let next = Int64.add r.last_exec_counter 1L in
  let next_i = Int64.to_int next in
  let slot = Slot_ring.slot r.log next_i in
  if Core.below_high c next_i && slot >= 0 then begin
    let e = Slot_ring.entry r.log slot in
    if (not e.executed) && Quorum.reached e.commit_votes ~threshold:(commit_quorum r) then begin
      e.executed <- true;
      r.last_exec_counter <- next;
      Core.check_exec_window c ~seq:next_i;
      if c.chk >= 0 then begin
        Check.commit ~session:c.chk ~replica:c.id ~view:r.view ~seq:next_i
          ~digest:(Types.batch_digest e.batch)
          ~signers:(Quorum.count e.commit_votes)
          ~quorum:(commit_quorum r)
          ~faulty:(Behavior.is_faulty c.behavior);
        if Core.batching c then Core.check_batch c ~view:r.view ~seq:next_i e.batch
      end;
      Core.exec_all c e.batch;
      (* Checkpoint certificates form among the executing (active) set. *)
      if Core.after_exec c r.log ~seq:next_i ~vote_to:(active_others r) then try_execute r;
      try_execute r
    end
  end

(* --- certified state transfer --- *)

(* An executed counter's requests; [] stops the served log suffix. *)
let served_payload e = if e.executed then e.batch else []

(* Install a completed, verified transfer and rejoin in the role the
   serving view implies: after a transition everyone is active, before it
   the initial split stands. The TrInc counter is trusted hardware and
   survived the wipe, so peers re-baseline this signer instead of seeing a
   replay. *)
let install_transfer (r : replica) (comp : Checkpoint.completion) =
  r.view <- max r.view comp.Checkpoint.c_view;
  r.vc_voted <- max r.vc_voted r.view;
  if comp.Checkpoint.c_view > 0 then begin
    r.transitioned <- true;
    r.is_active <- true
  end;
  r.last_exec_counter <- Int64.of_int (Core.install_transfer r.core r.log comp);
  r.last_shipped <- r.last_exec_counter;
  Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
  try_execute r

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

let note_entry r ~counter ~requests ~voter =
  let entry, fresh = Slot_ring.bind r.log (Int64.to_int counter) in
  if fresh then begin
    entry.batch <- requests;
    entry.commit_votes <- Quorum.empty;
    entry.executed <- false
  end;
  entry.commit_votes <- Quorum.add entry.commit_votes voter;
  entry

let send_own_commit r ~view ~requests ~(primary_cert : Trinc.attestation) =
  let digest = Types.batch_digest requests in
  match make_cert r digest with
  | Error _ -> ()
  | Ok cert ->
    ignore (note_entry r ~counter:primary_cert.Trinc.current ~requests ~voter:r.core.id);
    Core.broadcast r.core ~to_:(active_others r) (Commit_b { view; requests; primary_cert; cert });
    try_execute r

(* One TrInc attestation covers the whole list (the counter advances once
   per instance), one Prepare_b flight per active peer. Callers never
   hand over an empty or already-ordered list (the batcher's dedup guard
   or [order_request]). *)
let order_batch r (requests : Types.request list) =
  if requests != [] then
    match make_cert r (Types.batch_digest requests) with
    | Error _ -> ()
    | Ok cert ->
      Core.mark_ordered r.ordered ~seq:0 requests;
      ignore (note_entry r ~counter:cert.Trinc.current ~requests ~voter:r.core.id);
      Core.broadcast r.core ~to_:(active_others r) (Prepare_b { view = r.view; requests; cert });
      try_execute r

(* An unbatched request (ingress or view-change re-proposal) is a batch of
   one. *)
let order_request r (request : Types.request) =
  if not (Digest_map.mem r.ordered (Types.request_digest request)) then order_batch r [ request ]

(* Actives ship attested state to the passive set periodically; one sender
   (the primary) suffices in the fault-free case. *)
let ship_updates r =
  if is_primary r && (not r.transitioned) && Int64.compare r.last_exec_counter r.last_shipped > 0
  then begin
    r.last_shipped <- r.last_exec_counter;
    let rid_table = Core.rid_table_list r.core in
    let passive = passive_ids r in
    for i = 0 to Array.length passive - 1 do
      Core.send r.core ~dst:passive.(i)
        (Update
           { view = r.view; upto = r.last_exec_counter; state = App.state r.core.app; rid_table })
    done
  end

let adopt_new_view r ~view ~base ~state ~rid_table =
  let c = r.core in
  (match c.batcher with Some b -> Batcher.clear b | None -> ());
  (match c.cp with
  | Some cp ->
    Core.cancel_recover_timer c;
    Checkpoint.rebase cp ~seq:(Int64.to_int base)
  | None -> ());
  r.view <- view;
  r.vc_voted <- max r.vc_voted view;
  r.transitioned <- true;
  r.is_active <- true;
  Slot_ring.reset r.log;
  Digest_map.reset r.ordered;
  App.set_state c.app state;
  r.last_exec_counter <- base;
  Core.install_rid_table c rid_table;
  Core.cancel_timers c;
  Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
  Core.watch_all c ~delay:r.config.vc_timeout

let become_primary r ~view =
  let c = r.core in
  let rid_table = Core.rid_table_list c in
  let state = App.state c.app in
  let base = fst (Resoc_hw.Register.read (Trinc.counter_register r.trinc)) in
  adopt_new_view r ~view ~base ~state ~rid_table;
  Core.broadcast c ~to_:c.peer_ids (New_view { view; base; state; rid_table });
  List.iter (order_request r) (Core.pending_sorted c)

let on_activate r ~src ~new_view =
  if new_view > r.view then begin
    let c = r.core in
    let voters =
      Quorum.Rounds.note r.vc_rounds ~current:r.view ~view:new_view ~voter:src ~value:0
    in
    if voters >= r.f + 1 then begin
      if r.vc_voted < new_view then begin
        r.vc_voted <- new_view;
        Core.broadcast c ~to_:c.all_ids (Activate { new_view })
      end;
      if primary_of ~view:new_view ~n:c.n = c.id then begin
        c.stats.Stats.view_changes <- c.stats.Stats.view_changes + 1;
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
      Core.broadcast r.core ~to_:r.core.all_ids (Activate { new_view })
    end
  end

let on_request r (request : Types.request) =
  let c = r.core in
  if Core.cached c request then begin
    note_repeat r ~client:request.Types.client ~rid:request.Types.rid;
    Core.reply_cached c request
  end
  else begin
    let digest = Types.request_digest request in
    let was_pending = Core.admit c ~digest request in
    (* Every replica — the primary included — watches the request: in the
       all-active configuration a single silent active denies the quorum,
       and someone must call for the transition. *)
    Core.watch c ~delay:r.config.vc_timeout digest;
    if is_primary r && r.is_active then (
      match c.batcher with
      | Some b ->
        (* Retransmissions of a request already buffered (still pending)
           or already ordered must not enter a second batch. *)
        if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
      | None -> order_request r request)
    else Core.send c ~dst:(primary_of ~view:r.view ~n:c.n) (Request request)
  end

let on_prepare r ~src ~view ~requests ~(cert : Trinc.attestation) =
  if view = r.view && r.is_active && src = primary_of ~view ~n:r.core.n
     && cert.Trinc.signer = src && requests != []
  then begin
    let digest = Types.batch_digest requests in
    if verify_cert r ~digest cert && continuity_ok r ~signer:src ~counter:cert.Trinc.current
    then begin
      Core.mark_pending r.core requests;
      ignore (note_entry r ~counter:cert.Trinc.current ~requests ~voter:src);
      send_own_commit r ~view ~requests ~primary_cert:cert
    end
    else Core.watch_pending r.core ~delay:r.config.vc_timeout requests
  end

let on_commit r ~src ~view ~requests ~(primary_cert : Trinc.attestation)
    ~(cert : Trinc.attestation) =
  if view = r.view && r.is_active && cert.Trinc.signer = src
     && primary_cert.Trinc.signer = primary_of ~view ~n:r.core.n
     && requests != []
  then begin
    let digest = Types.batch_digest requests in
    if verify_cert r ~digest primary_cert && verify_cert r ~digest cert
       && continuity_ok r ~signer:src ~counter:cert.Trinc.current
    then begin
      ignore
        (note_entry r ~counter:primary_cert.Trinc.current ~requests
           ~voter:primary_cert.Trinc.signer);
      ignore (note_entry r ~counter:primary_cert.Trinc.current ~requests ~voter:src);
      try_execute r
    end
  end

let on_update r ~view ~upto ~state ~rid_table =
  if (not r.is_active) && view >= r.view && Int64.compare upto r.last_exec_counter > 0 then begin
    let c = r.core in
    r.last_exec_counter <- upto;
    App.set_state c.app state;
    Core.install_rid_table c rid_table;
    (* Requests the actives already served are no longer pending here. *)
    let stale =
      Digest_map.fold
        (fun digest req acc -> if Core.cached c req then digest :: acc else acc)
        c.pending []
    in
    List.iter
      (fun digest ->
        Digest_map.remove c.pending digest;
        Core.cancel_request_timer c digest)
      stale
  end

let on_new_view r ~src ~view ~base ~state ~rid_table =
  if view > r.view && src = primary_of ~view ~n:r.core.n then
    adopt_new_view r ~view ~base ~state ~rid_table

let handle (r : replica) ~src msg =
  let c = r.core in
  if Core.alive c then
    match msg with
    | Request request -> on_request r request
    | Prepare_b { view; requests; cert } -> on_prepare r ~src ~view ~requests ~cert
    | Commit_b { view; requests; primary_cert; cert } ->
      on_commit r ~src ~view ~requests ~primary_cert ~cert
    | Update { view; upto; state; rid_table } -> on_update r ~view ~upto ~state ~rid_table
    | Activate { new_view } -> on_activate r ~src ~new_view
    | New_view { view; base; state; rid_table } -> on_new_view r ~src ~view ~base ~state ~rid_table
    | Reply _ -> ()
    (* Only actives hold checkpoint certificates: passives neither vote
       nor serve, and a rejoiner asks everyone. *)
    | Checkpoint_vote { seq; digest } ->
      if r.is_active then begin
        if Core.on_checkpoint_vote c r.log ~src ~seq ~digest then try_execute r;
        Core.maybe_catchup c
      end
    | Fetch_state { have } ->
      if r.is_active then
        Core.on_fetch_state c r.log ~src ~view:r.view ~have
          ~upto:(Int64.to_int r.last_exec_counter) ~payload:served_payload
    | State_chunk chunk -> (
      match Core.on_state_chunk c ~src chunk with
      | Some comp
        when Int64.compare
               (Int64.of_int comp.Checkpoint.c_cert.Checkpoint.cp_seq)
               r.last_exec_counter
             > 0 ->
        install_transfer r comp
      | Some _ | None -> ())

let make_replica engine fabric config keychain stats ~id ~behavior ~chk =
  let n = n_replicas config in
  let f = config.f in
  let core =
    Core.create ~engine ~fabric ~id ~n ~n_clients:config.n_clients ~behavior ~stats ~chk
      ~request_timeout:config.request_timeout ~multicast:config.multicast
      ~checkpoint:config.checkpoint ~cp_quorum:(f + 1) ~spans:false
      ~reply:(fun reply -> Reply reply)
      ~vote:(fun ~seq ~digest -> Checkpoint_vote { seq; digest })
      ~fetch:(fun ~have -> Fetch_state { have })
      ~chunk:(fun chunk -> State_chunk chunk)
  in
  {
    core;
    f;
    config;
    trinc =
      Trinc.create ~id ~key:(Keychain.component keychain id) ~protection:config.trinc_protection;
    keychain;
    view = 0;
    is_active = id <= f;
    transitioned = false;
    last_exec_counter = 0L;
    log = Slot_ring.create ~capacity:(2 * Core.log_retention) ~fresh:fresh_entry;
    ordered = Digest_map.create ~capacity:64 ();
    mono = Monotonic.create ();
    baseline_pending = Array.make n false;
    vc_rounds = Quorum.Rounds.create ~n ();
    vc_voted = 0;
    initial_active_others =
      (let act = List.filter (fun i -> i <> id) (List.init (f + 1) Fun.id) in
       Array.of_list act);
    initial_passive = Array.init (n - f - 1) (fun i -> f + 1 + i);
    gap_drops = 0;
    last_shipped = 0L;
    repeat_counts = Hashtbl.create 8;
  }

(* Built after the replica record so the escalation and the pipeline gate
   can read the live sequencing state: the TrInc counter is the sequence
   number here, so in-flight instances = attested counter − execution
   frontier, and no attestation may step past the checkpoint high
   watermark. *)
let attach (r : replica) =
  r.core.escalate <- escalate r;
  match r.config.batching with
  | Some b when Batcher.active b ->
    let attested () = Int64.to_int (fst (Register.read (Trinc.counter_register r.trinc))) in
    r.core.batcher <-
      Some
        (Batcher.create ~engine:r.core.engine ~cfg:b ~seal:(order_batch r)
           ~ready:(fun () ->
             let a = attested () in
             a - Int64.to_int r.last_exec_counter < b.Types.pipeline_depth
             && Core.below_high r.core (a + 1))
           ~occupancy:(fun () -> attested () - Int64.to_int r.last_exec_counter))
  | Some _ | None -> ()

let start engine fabric config ?behaviors () =
  let n = n_replicas config in
  let behaviors, chk =
    Core.setup ~name:"Cheapbft.start" ~protocol:"cheapbft" fabric ~n ~n_clients:config.n_clients
      behaviors
  in
  let keychain = Keychain.create ~master:config.keychain_master ~n in
  let stats = Stats.create () in
  let replicas =
    Array.init n (fun id ->
        make_replica engine fabric config keychain stats ~id ~behavior:behaviors.(id) ~chk)
  in
  Array.iter
    (fun r ->
      attach r;
      fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg);
      Engine.every engine ~period:config.update_period (fun () -> ship_updates r))
    replicas;
  let clients =
    Core.clients engine fabric ~n ~n_clients:config.n_clients ~quorum:(config.f + 1)
      ~retry_timeout:config.request_timeout ~stats
      ~to_msg:(fun request -> Request request)
      ~of_msg:(function Reply reply -> Some reply | _ -> None)
  in
  { replicas; clients; shared_stats = stats }

let submit t ~client ~payload = Core.submit ~name:"Cheapbft.submit" t.clients ~client ~payload

let stats t = t.shared_stats

let view t ~replica = t.replicas.(replica).view
let replica_state t ~replica = App.state t.replicas.(replica).core.app
let active t ~replica = t.replicas.(replica).is_active
let transitioned t = Array.exists (fun r -> r.transitioned) t.replicas
let trinc t ~replica = t.replicas.(replica).trinc

let replica_online t ~replica = t.replicas.(replica).core.online

(* Rejuvenation is modelled only with checkpointing: without it the
   rejoining replica would need a state source the protocol lacks. *)
let set_offline t ~replica =
  let c = t.replicas.(replica).core in
  ignore (Core.checkpoint_exn ~name:"Cheapbft.set_offline" c);
  Core.set_offline c

let set_online t ~replica =
  let r = t.replicas.(replica) in
  let c = r.core in
  let cp = Core.checkpoint_exn ~name:"Cheapbft.set_online" c in
  if not c.online then begin
    c.online <- true;
    (* Rejuvenation wiped the replica's untrusted state (the TrInc
       counter is hardware and persists): rejoin by certified transfer. *)
    r.view <- 0;
    r.vc_voted <- 0;
    r.transitioned <- false;
    r.is_active <- r.core.id <= r.f;
    r.last_exec_counter <- 0L;
    r.last_shipped <- 0L;
    Slot_ring.reset r.log;
    Digest_map.reset r.ordered;
    Hashtbl.reset r.repeat_counts;
    Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
    Core.rejoin_wiped c cp
  end
