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
  val message_name : msg -> string
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
    id : int;
    n : int;
    f : int;
    engine : Engine.t;
    fabric : msg Transport.fabric;
    config : config;
    behavior : Behavior.t;
    app : App.t;
    hybrid_instance : H.t;
    keychain : Keychain.t;
    stats : Stats.t;
    mutable online : bool;
    mutable view : int;
    mutable last_exec_counter : int64;  (* primary counters up to here executed *)
    log : entry Slot_ring.t;  (* primary counter -> entry (current view) *)
    ordered : int Digest_map.t;  (* digests this primary already assigned *)
    pending : Types.request Digest_map.t;
    mutable rid_last : int array;  (* client -> last rid, min_int = none *)
    mutable rid_result : int64 array;
    timers : Engine.handle Digest_map.t;
    mono : Usig.Monotonic.checker;  (* per-sender UI continuity *)
    baseline_pending : bool array;  (* per-sender resync after rejoin *)
    vc_rounds : Quorum.Rounds.t;
    mutable vc_voted : int;
    all_ids : int array;
    peer_ids : int array;
    mcast : (src:int -> dsts:int array -> n:int -> msg -> unit) option;
        (* fabric multicast, resolved once; None = per-destination sends *)
    mutable own_commits_sent : int;
    mutable gap_drops : int;
    mutable batch_buffer : Types.request list;  (* reversed; primary only *)
    mutable flush_scheduled : bool;
    obs : Obs.t;
    obs_batch : Registry.histogram;
    obs_vc : int;
    chk : int;  (* resoc_check session, -1 when checking is off *)
    cp : Checkpoint.t option;  (* None = checkpointing disabled (default) *)
    mutable recover_timer : Engine.handle option;
    mutable batcher : Batcher.t option;  (* config.batching; None = legacy *)
  }

  type t = {
    engine : Engine.t;
    fabric : msg Transport.fabric;
    config : config;
    replicas : replica array;
    clients : msg Client.t array;
    shared_stats : Stats.t;
    keychain : Keychain.t;
  }

  (* Without checkpointing, executed entries older than this many slots
     are pruned on a fixed retention window; with [config.checkpoint]
     set, truncation follows the stable-checkpoint low watermark instead
     so the suffix can be served to recovering replicas (DESIGN.md §8). *)
  let log_retention = 256L

  (* Outlier bound for overflow pruning; see Pbft.prune_margin. *)
  let prune_margin = 1 lsl 15

  let message_name = function
    | Request _ -> "request"
    | Prepare _ -> "prepare"
    | Commit _ -> "commit"
    | Reply _ -> "reply"
    | Req_view_change _ -> "req-view-change"
    | New_view _ -> "new-view"
    | Checkpoint_vote _ -> "checkpoint-vote"
    | Fetch_state _ -> "fetch-state"
    | State_chunk _ -> "state-chunk"

  let primary_of ~view ~n = view mod n

  let is_primary (r : replica) = primary_of ~view:r.view ~n:r.n = r.id


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

  (* Fan-outs take the fabric's tree multicast when the replica was
     built with one: a single behaviour gate, then one injection that
     forks in the network instead of [Array.length to_] unicasts. *)
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

  let start_vc_timer r digest =
    if not (Digest_map.mem r.timers digest) then
      Digest_map.set r.timers digest
        (Engine.schedule r.engine ~delay:r.config.vc_timeout (fun () ->
             Digest_map.remove r.timers digest;
             if r.online && Digest_map.mem r.pending digest then begin
               (* Escalate past views whose primary never answered. *)
               let new_view = max r.view r.vc_voted + 1 in
               r.vc_voted <- new_view;
               broadcast r ~to_:r.all_ids (Req_view_change { new_view })
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

  let execute_one r (request : Types.request) =
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

  (* One certificate covers a whole batch: the digest chains the requests in
     order, so verifiers agree on both membership and sequence. The shared
     definition computes exactly the historical per-protocol fold. *)
  let batch_digest = Types.batch_digest

  let rec try_execute r =
    let next = Int64.add r.last_exec_counter 1L in
    let next_i = Int64.to_int next in
    let gate_ok =
      match r.cp with
      | Some cp when not !Checkpoint.test_ignore_watermarks -> next_i <= Checkpoint.high cp
      | Some _ | None -> true
    in
    if gate_ok then begin
      let slot = Slot_ring.slot r.log next_i in
      if slot >= 0 then begin
        let e = Slot_ring.entry r.log slot in
        if (not e.executed) && Quorum.reached e.commit_votes ~threshold:(r.f + 1) then begin
          (match r.cp with
          | Some cp when r.chk >= 0 ->
            Check.exec_window ~session:r.chk ~replica:r.id ~seq:next_i ~low:(Checkpoint.low cp)
              ~high:(Checkpoint.high cp)
              ~faulty:(Behavior.is_faulty r.behavior)
          | Some _ | None -> ());
          e.executed <- true;
          r.last_exec_counter <- next;
          if r.chk >= 0 then begin
            Check.commit ~session:r.chk ~replica:r.id ~view:r.view ~seq:next_i
              ~digest:(batch_digest e.requests)
              ~signers:(Quorum.count e.commit_votes)
              ~quorum:(r.f + 1)
              ~faulty:(Behavior.is_faulty r.behavior);
            (* The batch is this protocol's native unit, so the atomicity
               invariant covers singletons and legacy-window batches too. *)
            let len = List.length e.requests in
            List.iteri
              (fun pos (req : Types.request) ->
                Check.batch_commit ~session:r.chk ~replica:r.id ~view:r.view ~seq:next_i ~pos
                  ~len ~client:req.Types.client ~rid:req.Types.rid
                  ~faulty:(Behavior.is_faulty r.behavior))
              e.requests
          end;
          if !Obs.trace_on then
            Ring.async_end r.obs.Obs.ring ~time:(Engine.now r.engine) ~cat:Obs.Cat.repl
              ~id:(Obs.repl_counter_span ~replica:r.id ~counter:next_i)
              ~arg:(List.length e.requests);
          List.iter (execute_one r) e.requests;
          (match r.batcher with Some b -> Batcher.kick b | None -> ());
          (match r.cp with
          | None ->
            Slot_ring.release r.log (next_i - Int64.to_int log_retention);
            Slot_ring.prune_outside r.log
              ~low:(next_i - Int64.to_int log_retention)
              ~high:(next_i + prune_margin)
          | Some cp -> (
            match
              Checkpoint.note_exec cp ~seq:next_i ~state:(App.state r.app) ~rid_last:r.rid_last
                ~rid_result:r.rid_result
            with
            | Some d ->
              broadcast r ~to_:r.peer_ids (Checkpoint_vote { seq = next_i; digest = d });
              let prev = Checkpoint.note_vote cp ~seq:next_i ~digest:d ~voter:r.id in
              on_cp_advance r cp prev
            | None -> ()));
          try_execute r
        end
      end
    end

  (* Stable checkpoint advanced from [prev]: truncate the covered log
     prefix, sweep overflow outliers, resume a parked execution. *)
  and on_cp_advance r cp prev =
    if prev >= 0 then begin
      let lo = Checkpoint.low cp in
      for s = prev + 1 to lo do
        Slot_ring.release r.log s
      done;
      Slot_ring.prune_outside r.log ~low:(lo + 1) ~high:(Checkpoint.high cp + prune_margin);
      r.stats.Stats.checkpoints <- r.stats.Stats.checkpoints + 1;
      try_execute r
    end

  (* --- certified state transfer (see Checkpoint, DESIGN.md §8) --- *)

  let cancel_recover_timer r =
    match r.recover_timer with
    | Some h ->
      Engine.cancel r.engine h;
      r.recover_timer <- None
    | None -> ()

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

  (* Executed batches strictly above [from], ascending, stop at a gap. *)
  let log_suffix (r : replica) ~from =
    let acc = ref [] in
    let seq = ref (from + 1) in
    let continue = ref true in
    while !continue && !seq <= Int64.to_int r.last_exec_counter do
      let slot = Slot_ring.slot r.log !seq in
      if slot >= 0 then begin
        let e = Slot_ring.entry r.log slot in
        if e.executed && e.requests <> [] then begin
          acc := (!seq, e.requests) :: !acc;
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
        Checkpoint.serve cp ~view:r.view ~have ~suffix:(log_suffix r ~from:(Checkpoint.low cp))
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

  let install_transfer (r : replica) cp (c : Checkpoint.completion) =
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
    for s = prev_low + 1 to Int64.to_int r.last_exec_counter do
      Slot_ring.release r.log s
    done;
    Slot_ring.prune_outside r.log ~low:(Checkpoint.low cp + 1)
      ~high:(Checkpoint.high cp + prune_margin);
    (* We missed every hybrid counter issued during the outage. *)
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
          && c.Checkpoint.c_cert.Checkpoint.cp_seq > Int64.to_int r.last_exec_counter
        then install_transfer r cp c)

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
        Ring.async_begin r.obs.Obs.ring ~time:(Engine.now r.engine) ~cat:Obs.Cat.repl
          ~id:(Obs.repl_counter_span ~replica:r.id ~counter:(Int64.to_int counter))
          ~arg:(List.length requests)
    end;
    entry.commit_votes <- Quorum.add entry.commit_votes voter;
    entry

  let send_own_commit r ~view ~requests ~primary_cert =
    match H.create_cert r.hybrid_instance (batch_digest requests) with
    | Error _ -> ()  (* our hybrid fail-stopped; we cannot vouch *)
    | Ok cert ->
      r.own_commits_sent <- r.own_commits_sent + 1;
      ignore (note_entry r ~counter:(H.cert_counter primary_cert) ~requests ~voter:r.id);
      broadcast r ~to_:r.peer_ids (Commit { view; requests; primary_cert; cert });
      try_execute r

  (* Order one batch under the next certificate. *)
  let order_batch (r : replica) requests =
    let requests =
      List.filter (fun req -> not (Digest_map.mem r.ordered (Types.request_digest req))) requests
    in
    if requests <> [] then begin
      match H.create_cert r.hybrid_instance (batch_digest requests) with
      | Error _ -> ()  (* hybrid fail-stop: the group will time out on us *)
      | Ok cert ->
        List.iter (fun req -> Digest_map.set r.ordered (Types.request_digest req) 0) requests;
        let nbatch = List.length requests in
        if !Obs.metrics_on then Registry.observe r.obs.Obs.metrics r.obs_batch nbatch;
        if !Obs.trace_on then
          Ring.instant r.obs.Obs.ring ~time:(Engine.now r.engine) ~cat:Obs.Cat.repl
            ~id:(Obs.repl_event ~replica:r.id ~code:Obs.code_prepare)
            ~arg:nbatch;
        ignore (note_entry r ~counter:(H.cert_counter cert) ~requests ~voter:r.id);
        let equivocating =
          match Behavior.active_strategy r.behavior ~now:(Engine.now r.engine) with
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
          | Error _ -> broadcast r ~to_:r.peer_ids (Prepare { view = r.view; requests; cert })
          | Ok fake_cert ->
            ignore (note_entry r ~counter:(H.cert_counter fake_cert) ~requests:fake ~voter:r.id);
            let backups = r.peer_ids in
            let half = Array.length backups / 2 in
            Array.iteri
              (fun i dst ->
                if i < half then begin
                  send r ~dst (Prepare { view = r.view; requests = fake; cert = fake_cert });
                  send r ~dst (Prepare { view = r.view; requests; cert })
                end
                else begin
                  send r ~dst (Prepare { view = r.view; requests; cert });
                  send r ~dst (Prepare { view = r.view; requests = fake; cert = fake_cert })
                end)
              backups
        end
        else broadcast r ~to_:r.peer_ids (Prepare { view = r.view; requests; cert });
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
          (Engine.schedule r.engine ~delay:r.config.batch_window (fun () ->
               if r.flush_scheduled then flush_batch r))
      end
    end

  let adopt_new_view r ~view ~base ~state ~rid_table =
    r.view <- view;
    r.vc_voted <- max r.vc_voted view;
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
    r.batch_buffer <- [];
    r.flush_scheduled <- false;
    (match r.batcher with Some b -> Batcher.clear b | None -> ());
    (* Counter expectations restart from whatever peers send next. *)
    Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
    (match r.cp with
    | Some cp ->
      cancel_recover_timer r;
      Checkpoint.rebase cp ~seq:(Int64.to_int base)
    | None -> ());
    Digest_map.iter (fun digest _ -> start_vc_timer r digest) r.pending

  let become_primary r ~view =
    let rid_table = rid_table_list r in
    let state = App.state r.app in
    let base = H.current_counter r.hybrid_instance in
    adopt_new_view r ~view ~base ~state ~rid_table;
    broadcast r ~to_:r.peer_ids (New_view { view; base; state; rid_table });
    let pending = Digest_map.fold (fun _ req acc -> req :: acc) r.pending [] in
    let pending =
      List.sort
        (fun (a : Types.request) b ->
          compare (a.Types.client, a.Types.rid) (b.Types.client, b.Types.rid))
        pending
    in
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
    chunks pending

  let on_req_view_change r ~src ~new_view =
    if new_view > r.view then begin
      let voters =
        Quorum.Rounds.note r.vc_rounds ~current:r.view ~view:new_view ~voter:src ~value:0
      in
      if voters >= r.f + 1 then begin
        if r.vc_voted < new_view then begin
          r.vc_voted <- new_view;
          broadcast r ~to_:r.all_ids (Req_view_change { new_view })
        end;
        if primary_of ~view:new_view ~n:r.n = r.id then begin
          r.stats.Stats.view_changes <- r.stats.Stats.view_changes + 1;
          if !Obs.metrics_on then Registry.incr r.obs.Obs.metrics r.obs_vc;
          if !Obs.trace_on then
            Ring.instant r.obs.Obs.ring ~time:(Engine.now r.engine) ~cat:Obs.Cat.repl
              ~id:(Obs.repl_event ~replica:r.id ~code:Obs.code_view_change)
              ~arg:new_view;
          become_primary r ~view:new_view
        end
      end
    end

  let on_request r (request : Types.request) =
    let digest = Types.request_digest request in
    let client = request.Types.client in
    let c = rid_slot r client in
    if r.rid_last.(c) <> min_int && request.Types.rid <= r.rid_last.(c) then
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
          (* Retransmissions of a request already buffered (still pending)
             or already ordered must not enter a second batch. *)
          if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
        | None -> order_request r request)
      else begin
        send r ~dst:(primary_of ~view:r.view ~n:r.n) (Request request);
        start_vc_timer r digest
      end
    end

  let on_prepare r ~src ~view ~requests ~cert =
    if view = r.view && src = primary_of ~view ~n:r.n && H.cert_signer cert = src
       && requests <> []
    then begin
      if verify_cert r ~digest:(batch_digest requests) cert
         && continuity_ok r ~signer:src ~counter:(H.cert_counter cert)
      then begin
        List.iter
          (fun req -> Digest_map.set r.pending (Types.request_digest req) req)
          requests;
        ignore (note_entry r ~counter:(H.cert_counter cert) ~requests ~voter:src);
        send_own_commit r ~view ~requests ~primary_cert:cert
      end
      else
        (* Bad or gapped certificate from the primary: keep pressure on the
           timers of whichever requests we already know. *)
        List.iter
          (fun req ->
            let digest = Types.request_digest req in
            if Digest_map.mem r.pending digest then start_vc_timer r digest)
          requests
    end

  let on_commit r ~src ~view ~requests ~primary_cert ~cert =
    if view = r.view && H.cert_signer cert = src
       && H.cert_signer primary_cert = primary_of ~view ~n:r.n
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
    if view > r.view && src = primary_of ~view ~n:r.n then begin
      adopt_new_view r ~view ~base ~state ~rid_table
    end

  let handle (r : replica) ~src msg =
    let now = Engine.now r.engine in
    if r.online && not (Behavior.is_crashed r.behavior ~now) then
      match msg with
      | Request request -> on_request r request
      | Prepare { view; requests; cert } -> on_prepare r ~src ~view ~requests ~cert
      | Commit { view; requests; primary_cert; cert } ->
        on_commit r ~src ~view ~requests ~primary_cert ~cert
      | Req_view_change { new_view } -> on_req_view_change r ~src ~new_view
      | New_view { view; base; state; rid_table } -> on_new_view r ~src ~view ~base ~state ~rid_table
      | Checkpoint_vote { seq; digest } -> on_checkpoint_vote r ~src ~seq ~digest
      | Fetch_state { have } -> on_fetch_state r ~src ~have
      | State_chunk chunk -> on_state_chunk r ~src chunk
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
    {
      id;
      n;
      f = config.f;
      engine;
      fabric;
      config;
      behavior;
      app = App.accumulator ();
      hybrid_instance;
      keychain;
      stats;
      online = true;
      view = 0;
      last_exec_counter = 0L;
      log = Slot_ring.create ~capacity:(2 * Int64.to_int log_retention) ~fresh:fresh_entry;
      ordered = Digest_map.create ~capacity:64 ();
      pending = Digest_map.create ();
      rid_last = Array.make (n + config.n_clients) min_int;
      rid_result = Array.make (n + config.n_clients) 0L;
      timers = Digest_map.create ~capacity:16 ();
      mono = Usig.Monotonic.create ();
      baseline_pending = Array.make n false;
      vc_rounds = Quorum.Rounds.create ~n ();
      vc_voted = 0;
      all_ids = Array.init n Fun.id;
      peer_ids = Array.init (n - 1) (fun i -> if i < id then i else i + 1);
      mcast = (if config.multicast then fabric.Transport.multicast else None);
      own_commits_sent = 0;
      gap_drops = 0;
      batch_buffer = [];
      flush_scheduled = false;
      obs;
      obs_batch;
      obs_vc;
      chk;
      cp =
        (match config.checkpoint with
        | Some c -> Some (Checkpoint.create c ~obs ~quorum:(config.f + 1))
        | None -> None);
      recover_timer = None;
      batcher = None;
    }

  (* Built after the replica record so the pipeline gate can read the live
     sequencing state: in-flight instances = the hybrid's attested counter
     minus the execution frontier, and no certificate may step past the
     checkpoint high watermark. *)
  let attach_batcher engine (r : replica) =
    match r.config.batching with
    | Some b when Batcher.active b ->
      let attested () = Int64.to_int (H.current_counter r.hybrid_instance) in
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
        Some
          (Batcher.create ~engine ~cfg:b ~seal:(fun reqs -> order_batch r reqs) ~ready ~occupancy)
    | Some _ | None -> ()

  let start engine fabric config ?behaviors () =
    let n = n_replicas config in
    Quorum.check_n n "Hybrid_bft.start";
    let chk = if !Check.enabled then Check.new_session ~protocol:H.protocol_name else -1 in
    let behaviors =
      match behaviors with
      | Some b ->
        if Array.length b <> n then invalid_arg "Minbft.start: behaviors must cover every replica";
        b
      | None -> Array.make n Behavior.honest
    in
    if fabric.Transport.n_endpoints < n + config.n_clients then
      invalid_arg "Minbft.start: fabric too small";
    let keychain = Keychain.create ~master:config.keychain_master ~n in
    let stats = Stats.create () in
    let replicas =
      Array.init n (fun id ->
          make_replica engine fabric config keychain stats ~id ~behavior:behaviors.(id) ~chk)
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
    { engine; fabric; config; replicas; clients; shared_stats = stats; keychain }

  let submit t ~client ~payload =
    if client < 0 || client >= Array.length t.clients then invalid_arg "Minbft.submit: unknown client";
    Client.submit t.clients.(client) ~payload

  let stats t = t.shared_stats

  let view t ~replica = t.replicas.(replica).view

  let replica_state t ~replica = App.state t.replicas.(replica).app

  let set_replica_state t ~replica state = App.set_state t.replicas.(replica).app state

  let hybrid t ~replica = t.replicas.(replica).hybrid_instance

  let cert_gap_drops t = Array.fold_left (fun acc r -> acc + r.gap_drops) 0 t.replicas

  let replica_online t ~replica = t.replicas.(replica).online

  let set_offline t ~replica =
    let r = t.replicas.(replica) in
    r.online <- false;
    (match r.batcher with Some b -> Batcher.clear b | None -> ());
    Digest_map.iter (fun _ h -> Engine.cancel r.engine h) r.timers;
    Digest_map.reset r.timers;
    cancel_recover_timer r

  (* Legacy model: free state copy from the most advanced online peer. *)
  let legacy_rejoin t r =
    let best = ref None in
    Array.iter
      (fun peer ->
        if peer.id <> r.id && peer.online then
          match !best with
          | Some b when Int64.compare b.last_exec_counter peer.last_exec_counter >= 0 -> ()
          | Some _ | None -> best := Some peer)
      t.replicas;
    match !best with
    | Some peer ->
      r.view <- peer.view;
      r.vc_voted <- max r.vc_voted peer.view;
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
        (* Rejuvenation wiped the replica: rejoin by certified transfer
           instead of a free peer copy. *)
        r.view <- 0;
        r.vc_voted <- 0;
        r.last_exec_counter <- 0L;
        App.set_state r.app 0L;
        rid_reset r;
        Slot_ring.reset r.log;
        Digest_map.reset r.ordered;
        Digest_map.reset r.pending;
        r.batch_buffer <- [];
        r.flush_scheduled <- false;
        (match r.batcher with Some b -> Batcher.clear b | None -> ());
        Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
        Checkpoint.reset cp;
        start_recovery r cp
      | None -> legacy_rejoin t r
    end

end
