module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Mac = Resoc_crypto.Mac
module Keychain = Resoc_crypto.Keychain
module Behavior = Resoc_fault.Behavior
module Usig = Resoc_hybrid.Usig
module Register = Resoc_hw.Register
module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry
module Ring = Resoc_obs.Ring
module Check = Resoc_check.Check
module Core = Replica_core

module type HYBRID = sig
  type t
  type cert

  val protocol_name : string
  val make : id:int -> key:Mac.key -> protection:Register.protection -> t
  val create_cert : t -> Hash.t -> (cert, string) result
  val verify_cert : key:Mac.key -> digest:Hash.t -> cert -> bool
  val cert_signer : cert -> int
  val cert_counter : cert -> int64
  val current_counter : t -> int64
end

module type S = sig
  type hybrid
  type cert

  type msg =
    | Request of Types.request
    | Prepare of { view : int; requests : Types.request list; cert : cert }
    | Commit of { view : int; requests : Types.request list; primary_cert : cert; cert : cert }
    | Reply of Types.reply
    | Req_view_change of { new_view : int }
    | New_view of {
        view : int;
        base : int64;
        state : int64;
        rid_table : (int * (int * int64)) list;
      }
    | Checkpoint_vote of { seq : int; digest : Resoc_crypto.Hash.t }
    | Fetch_state of { have : int }
    | State_chunk of Checkpoint.chunk

  type config = {
    f : int;
    n_clients : int;
    request_timeout : int;
    vc_timeout : int;
    usig_protection : Register.protection;
    keychain_master : int64;
    batch_window : int;
    max_batch : int;
    checkpoint : Checkpoint.config option;
    multicast : bool;
    batching : Types.batching option;
  }

  val default_config : config
  val n_replicas : config -> int

  type t

  val start :
    Resoc_des.Engine.t ->
    msg Transport.fabric ->
    config ->
    ?behaviors:Behavior.t array ->
    unit ->
    t

  val submit : t -> client:int -> payload:int64 -> unit
  val stats : t -> Stats.t
  val view : t -> replica:int -> int
  val replica_state : t -> replica:int -> int64
  val set_replica_state : t -> replica:int -> int64 -> unit
  val hybrid : t -> replica:int -> hybrid
  val cert_gap_drops : t -> int
  val replica_online : t -> replica:int -> bool
  val set_offline : t -> replica:int -> unit
  val set_online : t -> replica:int -> unit
end

module Make (H : HYBRID) = struct
  type hybrid = H.t
  type cert = H.cert

  type msg =
    | Request of Types.request
    | Prepare of { view : int; requests : Types.request list; cert : cert }
    | Commit of { view : int; requests : Types.request list; primary_cert : cert; cert : cert }
    | Reply of Types.reply
    | Req_view_change of { new_view : int }
    | New_view of { view : int; base : int64; state : int64; rid_table : (int * (int * int64)) list }
    | Checkpoint_vote of { seq : int; digest : Resoc_crypto.Hash.t }
    | Fetch_state of { have : int }
    | State_chunk of Checkpoint.chunk

  type config = {
    f : int;
    n_clients : int;
    request_timeout : int;
    vc_timeout : int;
    usig_protection : Register.protection;
    keychain_master : int64;
    batch_window : int;  (* 0 = order immediately; >0 = buffer this long *)
    max_batch : int;  (* flush early when the buffer reaches this size *)
    checkpoint : Checkpoint.config option;  (* None = legacy retention GC *)
    multicast : bool;  (* route fan-outs through the fabric's multicast *)
    batching : Types.batching option;
        (* the cross-protocol batching/pipelining config; when active it
           supersedes the legacy batch_window/max_batch fields and adds
           the pipeline-depth gate. None = legacy behaviour. *)
  }

  let default_config =
    {
      f = 1;
      n_clients = 2;
      request_timeout = 4000;
      vc_timeout = 2500;
      usig_protection = Register.Secded;
      keychain_master = 0xC0FFEEL;
      batch_window = 0;
      max_batch = 16;
      checkpoint = None;
      multicast = false;
      batching = None;
    }

  let n_replicas config = (2 * config.f) + 1

  (* Pooled in the slot ring, reset in place when a counter claims the
     slot; commit votes are a quorum bitset. *)
  type entry = {
    mutable requests : Types.request list;  (* the batch bound to this counter *)
    mutable commit_votes : Quorum.t;  (* replicas vouching for this counter *)
    mutable executed : bool;
  }

  let fresh_entry _ = { requests = []; commit_votes = Quorum.empty; executed = false }

  type replica = {
    core : msg Core.t;
    f : int;
    config : config;
    hybrid_instance : H.t;
    keychain : Keychain.t;
    mutable view : int;
    mutable last_exec_counter : int64;  (* primary counters up to here executed *)
    log : entry Slot_ring.t;  (* primary counter -> entry (current view) *)
    ordered : int Digest_map.t;  (* digests this primary already assigned *)
    mono : Usig.Monotonic.checker;  (* per-sender UI continuity *)
    baseline_pending : bool array;  (* per-sender resync after rejoin *)
    vc_rounds : Quorum.Rounds.t;
    mutable vc_voted : int;
    mutable own_commits_sent : int;
    mutable gap_drops : int;
    mutable batch_buffer : Types.request list;  (* reversed; primary only *)
    mutable flush_scheduled : bool;
    obs_batch : Registry.histogram;
    obs_vc : int;
  }

  type t = { replicas : replica array; clients : msg Client.t array; shared_stats : Stats.t }

  let primary_of ~view ~n = view mod n

  let is_primary (r : replica) = primary_of ~view:r.view ~n:r.core.n = r.core.id

  (* A starved request: escalate past views whose primary never
     answered. *)
  let escalate r () =
    let new_view = max r.view r.vc_voted + 1 in
    r.vc_voted <- new_view;
    Core.broadcast r.core ~to_:r.core.all_ids (Req_view_change { new_view })

  (* One certificate covers a whole batch: the digest chains the requests in
     order, so verifiers agree on both membership and sequence. The shared
     definition computes exactly the historical per-protocol fold. *)
  let batch_digest = Types.batch_digest

  let rec try_execute r =
    let c = r.core in
    let next = Int64.add r.last_exec_counter 1L in
    let next_i = Int64.to_int next in
    if Core.below_high c next_i then begin
      let slot = Slot_ring.slot r.log next_i in
      if slot >= 0 then begin
        let e = Slot_ring.entry r.log slot in
        if (not e.executed) && Quorum.reached e.commit_votes ~threshold:(r.f + 1) then begin
          Core.check_exec_window c ~seq:next_i;
          e.executed <- true;
          r.last_exec_counter <- next;
          if c.chk >= 0 then begin
            Check.commit ~session:c.chk ~replica:c.id ~view:r.view ~seq:next_i
              ~digest:(batch_digest e.requests)
              ~signers:(Quorum.count e.commit_votes)
              ~quorum:(r.f + 1)
              ~faulty:(Behavior.is_faulty c.behavior);
            (* The batch is this protocol's native unit, so the atomicity
               invariant covers singletons and legacy-window batches too. *)
            Core.check_batch c ~view:r.view ~seq:next_i e.requests
          end;
          if !Obs.trace_on then
            Ring.async_end c.obs.Obs.ring ~time:(Engine.now c.engine) ~cat:Obs.Cat.repl
              ~id:(Obs.repl_counter_span ~replica:c.id ~counter:next_i)
              ~arg:(List.length e.requests);
          List.iter (Core.exec_one c) e.requests;
          if Core.after_exec c r.log ~seq:next_i ~vote_to:c.peer_ids then try_execute r;
          try_execute r
        end
      end
    end

  (* --- certified state transfer (see Checkpoint, DESIGN.md §8) --- *)

  (* An executed counter's batch; [] stops the served log suffix. *)
  let served_payload e = if e.executed then e.requests else []

  let install_transfer (r : replica) (comp : Checkpoint.completion) =
    r.view <- max r.view comp.Checkpoint.c_view;
    r.vc_voted <- max r.vc_voted r.view;
    r.last_exec_counter <- Int64.of_int (Core.install_transfer r.core r.log comp);
    (* We missed every hybrid counter issued during the outage. *)
    Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
    try_execute r

  (* UI continuity: exact next counter per sender, with a one-shot baseline
     resync after this replica rejoined (it missed intermediate counters). *)
  let continuity_ok r ~signer ~counter =
    if r.baseline_pending.(signer) then begin
      (* First UI from this sender since we (re)joined: adopt its counter as
         the new baseline — we cannot tell which counters we missed. *)
      r.baseline_pending.(signer) <- false;
      Usig.Monotonic.force r.mono ~signer ~counter;
      true
    end
    else
      match Usig.Monotonic.check r.mono ~signer ~counter with
      | Usig.Monotonic.Accept -> true
      | Usig.Monotonic.Replay -> false
      | Usig.Monotonic.Gap _ ->
        r.gap_drops <- r.gap_drops + 1;
        false

  let verify_cert (r : replica) ~digest cert =
    H.verify_cert ~key:(Keychain.component r.keychain (H.cert_signer cert)) ~digest cert

  (* Record the authenticated (request, counter) binding from the primary and
     add [voter]'s commit vote. *)
  let note_entry r ~counter ~requests ~voter =
    let entry, fresh = Slot_ring.bind r.log (Int64.to_int counter) in
    if fresh then begin
      entry.requests <- requests;
      entry.commit_votes <- Quorum.empty;
      entry.executed <- false;
      if !Obs.trace_on then
        Ring.async_begin r.core.obs.Obs.ring ~time:(Engine.now r.core.engine) ~cat:Obs.Cat.repl
          ~id:(Obs.repl_counter_span ~replica:r.core.id ~counter:(Int64.to_int counter))
          ~arg:(List.length requests)
    end;
    entry.commit_votes <- Quorum.add entry.commit_votes voter;
    entry

  let send_own_commit r ~view ~requests ~primary_cert =
    match H.create_cert r.hybrid_instance (batch_digest requests) with
    | Error _ -> ()  (* our hybrid fail-stopped; we cannot vouch *)
    | Ok cert ->
      r.own_commits_sent <- r.own_commits_sent + 1;
      ignore (note_entry r ~counter:(H.cert_counter primary_cert) ~requests ~voter:r.core.id);
      Core.broadcast r.core ~to_:r.core.peer_ids (Commit { view; requests; primary_cert; cert });
      try_execute r

  (* Order one batch under the next certificate. *)
  let order_batch (r : replica) requests =
    let c = r.core in
    let requests =
      List.filter (fun req -> not (Digest_map.mem r.ordered (Types.request_digest req))) requests
    in
    if requests <> [] then begin
      match H.create_cert r.hybrid_instance (batch_digest requests) with
      | Error _ -> ()  (* hybrid fail-stop: the group will time out on us *)
      | Ok cert ->
        List.iter (fun req -> Digest_map.set r.ordered (Types.request_digest req) 0) requests;
        let nbatch = List.length requests in
        if !Obs.metrics_on then Registry.observe c.obs.Obs.metrics r.obs_batch nbatch;
        if !Obs.trace_on then
          Ring.instant c.obs.Obs.ring ~time:(Engine.now c.engine) ~cat:Obs.Cat.repl
            ~id:(Obs.repl_event ~replica:c.id ~code:Obs.code_prepare)
            ~arg:nbatch;
        ignore (note_entry r ~counter:(H.cert_counter cert) ~requests ~voter:c.id);
        let equivocating =
          match Behavior.active_strategy c.behavior ~now:(Engine.now c.engine) with
          | Some Behavior.Equivocate -> true
          | Some _ | None -> false
        in
        if equivocating then begin
          (* The primary *wants* to equivocate, but the hybrid refuses to
             reuse a counter: the best it can do is certify a second, fake
             batch with the *next* counter and send each half a different
             one. Both are uniquely ordered; verifiers converge on both. *)
          let sample = List.hd requests in
          let fake =
            [ Types.make_request ~client:sample.Types.client
                ~rid:(sample.Types.rid + 1_000_000) ~payload:0L ]
          in
          match H.create_cert r.hybrid_instance (batch_digest fake) with
          | Error _ -> Core.broadcast c ~to_:c.peer_ids (Prepare { view = r.view; requests; cert })
          | Ok fake_cert ->
            ignore (note_entry r ~counter:(H.cert_counter fake_cert) ~requests:fake ~voter:c.id);
            let backups = c.peer_ids in
            let half = Array.length backups / 2 in
            Array.iteri
              (fun i dst ->
                if i < half then begin
                  Core.send c ~dst (Prepare { view = r.view; requests = fake; cert = fake_cert });
                  Core.send c ~dst (Prepare { view = r.view; requests; cert })
                end
                else begin
                  Core.send c ~dst (Prepare { view = r.view; requests; cert });
                  Core.send c ~dst (Prepare { view = r.view; requests = fake; cert = fake_cert })
                end)
              backups
        end
        else Core.broadcast c ~to_:c.peer_ids (Prepare { view = r.view; requests; cert });
        try_execute r
    end

  (* The legacy window buffers every arrival at the primary, so a
     client's own copy and a backup's forwarded copy of one request can
     both be in the buffer; only the first enters the batch. *)
  let flush_batch (r : replica) =
    r.flush_scheduled <- false;
    let rec dedup seen = function
      | [] -> []
      | (req : Types.request) :: tl ->
        let d = Types.request_digest req in
        if List.exists (Hash.equal d) seen then dedup seen tl else req :: dedup (d :: seen) tl
    in
    let batch = dedup [] (List.rev r.batch_buffer) in
    r.batch_buffer <- [];
    order_batch r batch

  (* The primary's ingress: order immediately (batch_window = 0) or buffer
     until the window closes / the batch fills. *)
  let order_request (r : replica) (request : Types.request) =
    if r.config.batch_window <= 0 then order_batch r [ request ]
    else begin
      r.batch_buffer <- request :: r.batch_buffer;
      if List.length r.batch_buffer >= r.config.max_batch then flush_batch r
      else if not r.flush_scheduled then begin
        r.flush_scheduled <- true;
        ignore
          (Engine.schedule r.core.engine ~delay:r.config.batch_window (fun () ->
               if r.flush_scheduled then flush_batch r))
      end
    end

  let adopt_new_view r ~view ~base ~state ~rid_table =
    let c = r.core in
    r.view <- view;
    r.vc_voted <- max r.vc_voted view;
    Slot_ring.reset r.log;
    Digest_map.reset r.ordered;
    App.set_state c.app state;
    r.last_exec_counter <- base;
    Core.install_rid_table c rid_table;
    Core.cancel_timers c;
    r.batch_buffer <- [];
    r.flush_scheduled <- false;
    (match c.batcher with Some b -> Batcher.clear b | None -> ());
    (* Counter expectations restart from whatever peers send next. *)
    Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
    (match c.cp with
    | Some cp ->
      Core.cancel_recover_timer c;
      Checkpoint.rebase cp ~seq:(Int64.to_int base)
    | None -> ());
    Core.watch_all c ~delay:r.config.vc_timeout

  let become_primary r ~view =
    let c = r.core in
    let rid_table = Core.rid_table_list c in
    let state = App.state c.app in
    let base = H.current_counter r.hybrid_instance in
    adopt_new_view r ~view ~base ~state ~rid_table;
    Core.broadcast c ~to_:c.peer_ids (New_view { view; base; state; rid_table });
    let chunk_size =
      match r.config.batching with
      | Some b when Batcher.active b -> max 1 b.Types.max_batch
      | Some _ | None -> max 1 r.config.max_batch
    in
    let rec chunks = function
      | [] -> ()
      | rest ->
        let rec take k acc = function
          | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        let batch, tl = take chunk_size [] rest in
        order_batch r batch;
        chunks tl
    in
    chunks (Core.pending_sorted c)

  let on_req_view_change r ~src ~new_view =
    if new_view > r.view then begin
      let c = r.core in
      let voters =
        Quorum.Rounds.note r.vc_rounds ~current:r.view ~view:new_view ~voter:src ~value:0
      in
      if voters >= r.f + 1 then begin
        if r.vc_voted < new_view then begin
          r.vc_voted <- new_view;
          Core.broadcast c ~to_:c.all_ids (Req_view_change { new_view })
        end;
        if primary_of ~view:new_view ~n:c.n = c.id then begin
          c.stats.Stats.view_changes <- c.stats.Stats.view_changes + 1;
          if !Obs.metrics_on then Registry.incr c.obs.Obs.metrics r.obs_vc;
          if !Obs.trace_on then
            Ring.instant c.obs.Obs.ring ~time:(Engine.now c.engine) ~cat:Obs.Cat.repl
              ~id:(Obs.repl_event ~replica:c.id ~code:Obs.code_view_change)
              ~arg:new_view;
          become_primary r ~view:new_view
        end
      end
    end

  let on_request r (request : Types.request) =
    let c = r.core in
    if Core.cached c request then Core.reply_cached c request
    else begin
      let digest = Types.request_digest request in
      let was_pending = Core.admit c ~digest request in
      if is_primary r then (
        match c.batcher with
        | Some b ->
          (* Retransmissions of a request already buffered (still pending)
             or already ordered must not enter a second batch. *)
          if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
        | None -> order_request r request)
      else begin
        Core.send c ~dst:(primary_of ~view:r.view ~n:c.n) (Request request);
        Core.watch c ~delay:r.config.vc_timeout digest
      end
    end

  let on_prepare r ~src ~view ~requests ~cert =
    let c = r.core in
    if view = r.view && src = primary_of ~view ~n:c.n && H.cert_signer cert = src
       && requests <> []
    then begin
      if verify_cert r ~digest:(batch_digest requests) cert
         && continuity_ok r ~signer:src ~counter:(H.cert_counter cert)
      then begin
        Core.mark_pending c requests;
        ignore (note_entry r ~counter:(H.cert_counter cert) ~requests ~voter:src);
        send_own_commit r ~view ~requests ~primary_cert:cert
      end
      else
        (* Bad or gapped certificate from the primary: keep pressure on the
           timers of whichever requests we already know. *)
        Core.watch_pending c ~delay:r.config.vc_timeout requests
    end

  let on_commit r ~src ~view ~requests ~primary_cert ~cert =
    if view = r.view && H.cert_signer cert = src
       && H.cert_signer primary_cert = primary_of ~view ~n:r.core.n
       && requests <> []
    then begin
      let digest = batch_digest requests in
      if verify_cert r ~digest primary_cert && verify_cert r ~digest cert
         && continuity_ok r ~signer:src ~counter:(H.cert_counter cert)
      then begin
        (* The primary's certificate authenticates the (batch, counter)
           binding even if we never saw the prepare directly. *)
        ignore
          (note_entry r
             ~counter:(H.cert_counter primary_cert)
             ~requests
             ~voter:(H.cert_signer primary_cert));
        ignore (note_entry r ~counter:(H.cert_counter primary_cert) ~requests ~voter:src);
        try_execute r
      end
    end

  let on_new_view r ~src ~view ~base ~state ~rid_table =
    if view > r.view && src = primary_of ~view ~n:r.core.n then
      adopt_new_view r ~view ~base ~state ~rid_table

  let handle (r : replica) ~src msg =
    let c = r.core in
    if Core.alive c then
      match msg with
      | Request request -> on_request r request
      | Prepare { view; requests; cert } -> on_prepare r ~src ~view ~requests ~cert
      | Commit { view; requests; primary_cert; cert } ->
        on_commit r ~src ~view ~requests ~primary_cert ~cert
      | Req_view_change { new_view } -> on_req_view_change r ~src ~new_view
      | New_view { view; base; state; rid_table } -> on_new_view r ~src ~view ~base ~state ~rid_table
      | Checkpoint_vote { seq; digest } ->
        if Core.on_checkpoint_vote c r.log ~src ~seq ~digest then try_execute r;
        Core.maybe_catchup c
      | Fetch_state { have } ->
        Core.on_fetch_state c r.log ~src ~view:r.view ~have
          ~upto:(Int64.to_int r.last_exec_counter) ~payload:served_payload
      | State_chunk chunk -> (
        match Core.on_state_chunk c ~src chunk with
        | Some comp
          when comp.Checkpoint.c_cert.Checkpoint.cp_seq > Int64.to_int r.last_exec_counter ->
          install_transfer r comp
        | Some _ | None -> ())
      | Reply _ -> ()

  let make_replica engine fabric config keychain stats ~id ~behavior ~chk =
    let hybrid_instance =
      H.make ~id ~key:(Keychain.component keychain id) ~protection:config.usig_protection
    in
    let obs = Engine.obs engine in
    let obs_batch, obs_vc =
      if !Obs.metrics_on then
        ( Registry.histogram obs.Obs.metrics "repl.batch_size" ~bounds:[| 1; 2; 4; 8; 16; 32 |],
          Registry.counter obs.Obs.metrics "repl.view_changes" )
      else (Registry.null_histogram, 0)
    in
    let n = n_replicas config in
    (* The hybrid prevents equivocation, so f+1 matching checkpoint votes
       contain one from a correct replica. *)
    let core =
      Core.create ~engine ~fabric ~id ~n ~n_clients:config.n_clients ~behavior ~stats ~chk
        ~request_timeout:config.request_timeout ~multicast:config.multicast
        ~checkpoint:config.checkpoint ~cp_quorum:(config.f + 1) ~spans:true
        ~reply:(fun reply -> Reply reply)
        ~vote:(fun ~seq ~digest -> Checkpoint_vote { seq; digest })
        ~fetch:(fun ~have -> Fetch_state { have })
        ~chunk:(fun chunk -> State_chunk chunk)
    in
    {
      core;
      f = config.f;
      config;
      hybrid_instance;
      keychain;
      view = 0;
      last_exec_counter = 0L;
      log = Slot_ring.create ~capacity:(2 * Core.log_retention) ~fresh:fresh_entry;
      ordered = Digest_map.create ~capacity:64 ();
      mono = Usig.Monotonic.create ();
      baseline_pending = Array.make n false;
      vc_rounds = Quorum.Rounds.create ~n ();
      vc_voted = 0;
      own_commits_sent = 0;
      gap_drops = 0;
      batch_buffer = [];
      flush_scheduled = false;
      obs_batch;
      obs_vc;
    }

  (* Built after the replica record so the escalation and the pipeline
     gate can read the live sequencing state: in-flight instances = the
     hybrid's attested counter minus the execution frontier, and no
     certificate may step past the checkpoint high watermark. *)
  let attach (r : replica) =
    r.core.escalate <- escalate r;
    match r.config.batching with
    | Some b when Batcher.active b ->
      let attested () = Int64.to_int (H.current_counter r.hybrid_instance) in
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
      Core.setup ~name:"Hybrid_bft.start" ~protocol:H.protocol_name fabric ~n
        ~n_clients:config.n_clients behaviors
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
        fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg))
      replicas;
    let clients =
      Core.clients engine fabric ~n ~n_clients:config.n_clients ~quorum:(config.f + 1)
        ~retry_timeout:config.request_timeout ~stats
        ~to_msg:(fun request -> Request request)
        ~of_msg:(function Reply reply -> Some reply | _ -> None)
    in
    { replicas; clients; shared_stats = stats }

  let submit t ~client ~payload = Core.submit ~name:"Hybrid_bft.submit" t.clients ~client ~payload

  let stats t = t.shared_stats

  let view t ~replica = t.replicas.(replica).view

  let replica_state t ~replica = App.state t.replicas.(replica).core.app

  let set_replica_state t ~replica state = App.set_state t.replicas.(replica).core.app state

  let hybrid t ~replica = t.replicas.(replica).hybrid_instance

  let cert_gap_drops t = Array.fold_left (fun acc r -> acc + r.gap_drops) 0 t.replicas

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
        r.view <- 0;
        r.vc_voted <- 0;
        r.last_exec_counter <- 0L;
        Slot_ring.reset r.log;
        Digest_map.reset r.ordered;
        r.batch_buffer <- [];
        r.flush_scheduled <- false;
        Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
        Core.rejoin_wiped c cp
      | None -> (
        match
          Core.legacy_rejoin c t.replicas ~core:(fun p -> p.core) ~at_least:(fun b p ->
              Int64.compare b.last_exec_counter p.last_exec_counter >= 0)
        with
        | Some peer ->
          r.view <- peer.view;
          r.vc_voted <- max r.vc_voted peer.view;
          r.last_exec_counter <- peer.last_exec_counter;
          Slot_ring.reset r.log;
          Digest_map.reset r.ordered;
          Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true
        | None -> ())
    end
end
