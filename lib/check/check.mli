(** Online safety-invariant checker for the replication, hybrid and NoC layers.

    The checker is wired into the hot paths behind the same gate discipline as
    [Resoc_obs.Obs]: every instrumented site stores an integer checker id at
    creation time ([-1] when checking is disabled) and guards the hook call
    with a single [>= 0] branch, so a disabled checker costs one predictable
    branch and zero allocation, and BENCH output stays byte-identical.
    The zero-allocation claim holds with the checker on too: state lives in
    flat int tables that are built lazily and reused across replicates, so
    once they have grown, a hook is an array index and a table probe and
    allocates nothing (violations aside).

    State is per-domain ([Domain.DLS]), so campaigns can keep [--jobs n]
    parallelism with the checker enabled: each worker domain checks its own
    replicates independently. [begin_replicate] must be called at the start of
    every replicate (the campaign runner does this when checking is on).

    Invariants enforced:
    - {b Agreement safety}: no two correct replicas of one protocol session
      commit different request digests at the same (view, sequence) slot.
      Keying includes the view/term/epoch because the simplified protocols
      re-base their sequence space on view change (hybrid counters are
      per-primary instances) and delegate cross-view agreement to state
      transfer.
    - {b Quorum-certificate integrity}: every commit reported with a signer
      count carries at least the protocol's quorum of distinct signers.
    - {b Batch atomicity}: with request batching on, every request a
      replica commits belongs to exactly one committed batch per view,
      and positions within a batch commit in order.
    - {b Counter monotonicity / non-equivocation}: a USIG or TrInc never
      re-issues a counter value, and never binds one counter to two digests.
      A register readback that differs from the last issued value is treated
      as an SEU perturbation and resynchronizes the tracker instead of firing
      (plain registers in E2 are legitimately corrupted by fault injection).
    - {b Watermark discipline}: with checkpointing enabled, a replica never
      executes a sequence number outside its (low, high] watermark window.
    - {b Certified state transfer}: a completed state transfer installs app
      state whose recomputed digest matches the checkpoint certificate it
      claimed.
    - {b A2M log integrity}: attested sequence numbers grow strictly by one.
    - {b NoC conservation}: delivered + dropped flits never exceed injected
      flits (no duplication, no phantom delivery).
    - {b NoC route integrity}: a hop never leaves a failed router or crosses
      a failed link, and no flight visits a router twice under one
      route-table epoch (loop freedom is intra-epoch; recomputes may
      re-route a flight through earlier ground).
    - {b NoC delivery completeness}: adaptive routing never drops a message
      at a live router whose destination the route tables say is reachable
      — delivered iff connected, with drops justified by partitions only.
    - {b Multicast duplicate freedom}: a tree multicast never delivers the
      payload twice to one destination (the forks are disjoint subtrees).
    - {b Multicast delivery-set equality}: when no fault flips the mesh
      epoch while the payload is in flight, the set of destinations a
      multicast serves equals the per-destination unicast reference over
      the current tables — exactly the tree-reachable destinations
      recorded at send time, nothing missing, nothing extra.

    A violated invariant raises {!Violation}; inside a campaign the exception
    is captured by the worker pool and surfaces as a failed replicate, which
    the shrinker can then minimize. *)

exception Violation of string

val enabled : bool ref
(** Master gate consulted at instrumentation-{e creation} sites only. *)

val enable : unit -> unit
val disable : unit -> unit

val begin_replicate : unit -> unit
(** Reset this domain's checker state. Call before every checked replicate.
    Ids handed out before the call are stale after it: hooks given one are
    ignored, and never reach an object of the new replicate. *)

val hooks_fired : unit -> int
(** Number of hook invocations seen by this domain since [begin_replicate]
    (used by the self-tests to prove the checker actually observed traffic). *)

(** {1 Protocol sessions} *)

val new_session : protocol:string -> int
(** Allocate a checker session for one protocol instance. Call only when
    {!enabled}; replicas store the id and guard hooks with [chk >= 0]. *)

val commit :
  session:int ->
  replica:int ->
  view:int ->
  seq:int ->
  digest:int64 ->
  signers:int ->
  quorum:int ->
  faulty:bool ->
  unit
(** Report that [replica] committed [digest] at [(view, seq)]. [signers] is
    the size of the commit certificate, or [-1] when the protocol commits
    without a local certificate (e.g. a Paxos follower applying a leader
    decision); [faulty] replicas are recorded nowhere and checked never —
    a Byzantine replica is allowed to lie. *)

val batch_commit :
  session:int ->
  replica:int ->
  view:int ->
  seq:int ->
  pos:int ->
  len:int ->
  client:int ->
  rid:int ->
  faulty:bool ->
  unit
(** Report that [replica] committed the request [(client, rid)] at
    position [pos] of the [len]-request batch agreed at [(view, seq)].
    Fires when a request lands in two distinct committed batches of one
    view on one replica (batch atomicity), or when positions within a
    batch are not reported in ascending 0-based order (intra-batch
    order). Cross-replica batch agreement is already covered by {!commit}
    over the batch digest. *)

val exec_window :
  session:int -> replica:int -> seq:int -> low:int -> high:int -> faulty:bool -> unit
(** Report that [replica] is about to execute [seq] under watermark window
    [(low, high]]. Fires a violation when [seq] lies outside the window. *)

val transfer_applied :
  session:int -> replica:int -> seq:int -> claimed:int64 -> actual:int64 -> faulty:bool -> unit
(** Report that [replica] installed a completed state transfer claiming the
    checkpoint certificate at [seq] with digest [claimed]; [actual] is the
    digest recomputed over the received state. Fires on mismatch. *)

(** {1 Trusted-component hybrids} *)

val new_hybrid : name:string -> int

val counter_issued : hybrid:int -> read:int64 -> issued:int64 -> digest:int64 -> unit
(** Report a USIG/TrInc issuance: the hybrid read [read] from its counter
    register and issued [issued] bound to [digest]. *)

val a2m_append : hybrid:int -> seq:int64 -> digest:int64 -> unit
(** Report an A2M append that attested [digest] at log position [seq]. *)

(** {1 NoC conservation} *)

val new_network : unit -> int
val flit_injected : net:int -> unit
val flit_delivered : net:int -> unit
val flit_dropped : net:int -> unit

val noc_hop :
  net:int -> flight:int -> epoch:int -> cur:int -> next:int -> cur_up:bool -> link_up:bool -> unit
(** Report that [flight] hops from [cur] toward [next] under route-table
    [epoch]. Fires when the hop leaves a failed router or crosses a
    failed link, or when the flight revisits [cur] under one epoch
    (routing loop — loop freedom is intra-epoch: a recompute may
    legitimately re-route a flight back through earlier ground). *)

val noc_flight_done : net:int -> flight:int -> unit
(** Forget the visited-router trail of a delivered or dropped flight. *)

val noc_reachable_drop : net:int -> node:int -> dst:int -> reachable:bool -> unit
(** Report an adaptive-mode drop decision at live router [node]; fires
    when the route tables say [dst] was in fact reachable. *)

(** {1 NoC multicast}

    [mcast] ids are allocated by the network per multicast send; the
    expected set is the destinations the multicast trees reach at send
    time (the per-destination unicast reference over the current
    tables). *)

val mcast_begin : net:int -> mcast:int -> unit

val mcast_expect : net:int -> mcast:int -> node:int -> unit
(** Record [node] as tree-reachable for [mcast]. Idempotent. *)

val mcast_deliver : net:int -> mcast:int -> node:int -> unit
(** Report a delivery of [mcast] at [node]; fires on a duplicate. *)

val mcast_done : net:int -> mcast:int -> strict:bool -> unit
(** Close [mcast]. With [strict] (no mesh-epoch flip while in flight) the
    delivered set must equal the expected set exactly; without, fault-time
    losses are forgiven. *)
