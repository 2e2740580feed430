(** The replica harness shared by every replication protocol.

    PBFT, MinBFT/A2M-BFT ({!Hybrid_bft}), CheapBFT, Paxos and
    primary-backup differ in their agreement messages and in how they
    change view, term or epoch. Everything else a replica does is the
    same and lives here:
    - behaviour-gated sending, and replies (including corrupt execution);
    - the per-client reply cache (exactly-once execution);
    - the pending-request table and its request timers;
    - the batcher, which each protocol creates with its own pipeline gate;
    - checkpoint voting, log truncation at a stable checkpoint, and
      certified state transfer with its recovery timer;
    - the online/offline lifecycle, including the legacy free-peer-copy
      rejoin of runs without checkpointing;
    - the group set-up every [start] performs.

    Each protocol's replica record embeds one ['msg t]. The protocol keeps
    its own entry type, log, execution loop and view change, and calls
    into this module for the rest. The only protocol code the core runs is
    the four message constructors given to {!create}. Where an operation
    needs the protocol's log it takes the {!Slot_ring.t} as an argument;
    where the protocol must resume execution afterwards, the operation
    returns [true] and the caller runs its own loop. *)

module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior
module Obs = Resoc_obs.Obs

type 'msg t = {
  id : int;
  n : int;
  engine : Engine.t;
  fabric : 'msg Transport.fabric;
  mcast : (src:int -> dsts:int array -> n:int -> 'msg -> unit) option;
      (** Fabric multicast, resolved once; [None] = per-destination sends. *)
  behavior : Behavior.t;
  app : App.t;
  stats : Stats.t;
  request_timeout : int;  (** Also the recovery fetch retry period. *)
  mutable online : bool;
  mutable rid_last : int array;  (** Client -> last executed rid; [min_int] = none. *)
  mutable rid_result : int64 array;  (** Client -> cached result of that rid. *)
  pending : Types.request Digest_map.t;  (** Seen, not yet executed. *)
  timers : Engine.handle Digest_map.t;  (** Per-request view-change timers. *)
  mutable escalate : unit -> unit;
      (** What a starved request triggers (see {!watch}); each protocol
          sets it once per replica after construction. *)
  all_ids : int array;  (** [0 .. n-1]. *)
  peer_ids : int array;  (** [0 .. n-1] minus [id]. *)
  mutable batcher : Batcher.t option;  (** Some iff the config's batching is active. *)
  obs : Obs.t;
  spans : bool;  (** Emit request spans on the trace ring (PBFT, MinBFT/A2M). *)
  chk : int;  (** resoc_check session, -1 when checking is off. *)
  cp : Checkpoint.t option;  (** [None] = checkpointing disabled (default). *)
  mutable recover_timer : Engine.handle option;  (** Fetch retry while recovering. *)
  reply_msg : Types.reply -> 'msg;
  vote_msg : seq:int -> digest:Hash.t -> 'msg;
  fetch_msg : have:int -> 'msg;
  chunk_msg : Checkpoint.chunk -> 'msg;
}

val log_retention : int
(** Without checkpointing, executed log entries older than this many
    slots are released on a fixed retention window. With checkpointing,
    truncation instead follows the stable-checkpoint low watermark, so
    the retained suffix can always be served to a recovering replica. *)

(** {1 Group set-up} *)

val setup :
  name:string ->
  protocol:string ->
  'msg Transport.fabric ->
  n:int ->
  n_clients:int ->
  Behavior.t array option ->
  Behavior.t array * int
(** Validate a group of [n] replicas and [n_clients] clients: [n] fits the
    quorum bitsets, [behaviors] (default all-honest) covers every replica,
    and the fabric has an endpoint for everyone. Returns the behaviours
    and the check session ([-1] when checking is off). [name] prefixes the
    [Invalid_argument] messages. *)

val create :
  engine:Engine.t ->
  fabric:'msg Transport.fabric ->
  id:int ->
  n:int ->
  n_clients:int ->
  behavior:Behavior.t ->
  stats:Stats.t ->
  chk:int ->
  request_timeout:int ->
  multicast:bool ->
  checkpoint:Checkpoint.config option ->
  cp_quorum:int ->
  spans:bool ->
  reply:(Types.reply -> 'msg) ->
  vote:(seq:int -> digest:Hash.t -> 'msg) ->
  fetch:(have:int -> 'msg) ->
  chunk:(Checkpoint.chunk -> 'msg) ->
  'msg t
(** One replica running the accumulator app. [cp_quorum] is the
    checkpoint certificate threshold. The constructors build the
    protocol's reply, checkpoint-vote, fetch-state and state-chunk
    messages. *)

val clients :
  Engine.t ->
  'msg Transport.fabric ->
  n:int ->
  n_clients:int ->
  quorum:int ->
  retry_timeout:int ->
  stats:Stats.t ->
  to_msg:(Types.request -> 'msg) ->
  of_msg:('msg -> Types.reply option) ->
  'msg Client.t array
(** The group's clients, at endpoints [n .. n + n_clients - 1]. *)

val submit : name:string -> 'msg Client.t array -> client:int -> payload:int64 -> unit
(** Submit through client index [client]; [Invalid_argument] when unknown. *)

(** {1 Sending} *)

val alive : 'msg t -> bool
(** Online and not crashed: the gate on every handler. *)

val send : 'msg t -> dst:int -> 'msg -> unit
(** Honours the behaviour: offline and crashed replicas are mute, so are
    Silent ones; Delay holds the message back. *)

val broadcast : 'msg t -> to_:int array -> 'msg -> unit
(** One behaviour gate, then one fabric multicast when the replica has
    one, else a {!send} per destination. *)

val reply : 'msg t -> client:int -> rid:int -> int64 -> unit
(** Answer a client; a Corrupt_execution replica garbles the result. *)

(** {1 Reply cache and execution} *)

val rid_slot : 'msg t -> int -> int
(** Index of [client] in the reply-cache arrays, growing them on demand. *)

val store : 'msg t -> client:int -> rid:int -> int64 -> unit
(** Record [client]'s last executed [rid] and its result. *)

val cached : 'msg t -> Types.request -> bool
(** The request was already executed: its reply is in the cache. *)

val reply_cached : 'msg t -> Types.request -> unit
(** Re-send the cached reply of an executed request. *)

val rid_table_list : 'msg t -> (int * (int * int64)) list
(** The reply cache, ascending in client (view-change handoff form). *)

val install_rid_table : 'msg t -> (int * (int * int64)) list -> unit
(** Replace the reply cache by a handed-off table. *)

val execute : 'msg t -> Types.request -> int64
(** Exactly-once execution: the cached result when already executed, else
    run the app and record the result. *)

val exec_one : 'msg t -> Types.request -> unit
(** One request of an agreed instance: {!execute}, retire it from
    [pending] with its timer, close its span, reply to the client. *)

val exec_all : 'msg t -> Types.request list -> unit
(** {!exec_one} over an agreed instance, in order. *)

val mark_pending : 'msg t -> Types.request list -> unit
(** Record every request an instance carries as pending. *)

val mark_ordered : int Digest_map.t -> seq:int -> Types.request list -> unit
(** A primary's dedup table: map every request of the instance to [seq]. *)

val admit : 'msg t -> digest:Hash.t -> Types.request -> bool
(** Mark a request pending (opening its span on first sight); returns
    whether it already was. *)

val pending_sorted : 'msg t -> Types.request list
(** Pending requests ordered by (client, rid), for deterministic
    re-proposal by a new primary. *)

val watch : 'msg t -> delay:int -> Hash.t -> unit
(** Arm the request timer of [digest] unless one is running. When it
    fires it is forgotten, and if the replica is online and the request
    still pending, [escalate] runs. Arming allocates the timer and one
    closure over the core and the digest. *)

val watch_pending : 'msg t -> delay:int -> Types.request list -> unit
(** {!watch} every request of the list that is pending. *)

val watch_all : 'msg t -> delay:int -> unit
(** {!watch} every pending request: a new view restarts their patience. *)

val cancel_request_timer : 'msg t -> Hash.t -> unit

val cancel_timers : 'msg t -> unit
(** Cancel and forget every request timer. *)

(** {1 Checkpoints} *)

val below_high : 'msg t -> int -> bool
(** [seq] may execute (or be proposed): at or below the checkpoint high
    watermark, or checkpointing is off. *)

val check_exec_window : 'msg t -> seq:int -> unit
(** Report an execution to the checker's watermark invariant. *)

val check_batch : 'msg t -> view:int -> seq:int -> Types.request list -> unit
(** Report every request of a committed batch to the checker's
    batch-atomicity invariant. Call only when [chk >= 0]. *)

val batching : 'msg t -> bool
(** The replica has an active batcher. Protocols whose unbatched
    instances hold one request report batch atomicity only then. *)

val after_exec : 'msg t -> 'e Slot_ring.t -> seq:int -> vote_to:int array -> bool
(** After executing [seq]: kick the batcher, then either release the log
    on the retention window (no checkpointing) or, at a checkpoint
    boundary, broadcast this replica's vote to [vote_to] and count it.
    [true] when that completed a certificate (see {!on_checkpoint_vote}):
    the caller resumes execution. *)

val on_checkpoint_vote : 'msg t -> 'e Slot_ring.t -> src:int -> seq:int -> digest:Hash.t -> bool
(** A peer's checkpoint vote. When it completes a certificate, the low
    watermark advances: release the covered log prefix, sweep overflow
    outliers, count the checkpoint and kick the batcher, whose pipeline
    may have parked at the old high watermark. [true] then: the caller
    resumes execution, and in any case calls {!maybe_catchup}. *)

val maybe_catchup : 'msg t -> unit
(** Start recovering when a certificate formed on a boundary this replica
    never executed: fetch the latest certified checkpoint from the peers,
    re-asking every [request_timeout] until a transfer installs. *)

(** {1 Certified state transfer} *)

val cancel_recover_timer : 'msg t -> unit

val serve : 'msg t -> Checkpoint.t -> src:int -> view:int -> have:int ->
  suffix:(int * Types.request list) list -> unit
(** Send [src] the stable checkpoint plus [suffix] as state chunks, when
    there is anything newer than [have] to offer. *)

val on_fetch_state :
  'msg t -> 'e Slot_ring.t -> src:int -> view:int -> have:int -> upto:int ->
  payload:('e -> Types.request list) -> unit
(** {!serve} with the executed log suffix above the low watermark, up to
    [upto]: [payload e] is an executed entry's requests, [[]] where the
    suffix stops. *)

val on_state_chunk : 'msg t -> src:int -> Checkpoint.chunk -> Checkpoint.completion option
(** Feed one chunk. When it completes a transfer, report it to the
    checker and return it if it verified; the caller installs it when it
    is ahead of its own execution. *)

val install_state : 'msg t -> Checkpoint.completion -> int
(** Adopt a verified transfer: state, reply cache and stable checkpoint,
    then replay the log suffix (no client replies: the group already
    answered). Returns the sequence number execution stands at. *)

val install_transfer : 'msg t -> 'e Slot_ring.t -> Checkpoint.completion -> int
(** {!install_state}, then release the log up to the new frontier. *)

(** {1 Lifecycle} *)

val checkpoint_exn : name:string -> 'msg t -> Checkpoint.t
(** The replica's checkpoint state; [Invalid_argument] prefixed by [name]
    when checkpointing is off. CheapBFT and primary-backup model
    rejuvenation only with checkpointing and guard their lifecycle with
    it. *)

val set_offline : 'msg t -> unit
(** Tile powered down: mute, request and recovery timers cancelled,
    batcher buffer dropped. *)

val rejoin_wiped : 'msg t -> Checkpoint.t -> unit
(** Rejuvenation wiped the replica: zero state, empty reply cache and
    pending table, fresh checkpoint state, then recover by transfer. The
    caller resets its own protocol state. The fetch repeats as in
    {!maybe_catchup}. *)

val legacy_rejoin :
  'msg t -> 'r array -> core:('r -> 'msg t) -> at_least:('r -> 'r -> bool) -> 'r option
(** Legacy model (no checkpointing): copy state, reply cache and an empty
    pending table from the most advanced online peer, where [at_least a b]
    says [a] executed at least as far as [b]. Returns that peer for the
    caller to copy its protocol state from; [None] leaves everything
    untouched. *)
