(** Deterministic pseudo-random number generation for simulations.

    SplitMix64 generator: fast, statistically sound for simulation purposes,
    and splittable, so every simulated component can own an independent
    stream derived from the experiment's master seed. All stochastic
    behaviour in resoc flows from one of these generators, which makes every
    run exactly reproducible from its seed.

    The state is held unboxed, so draws that return an [int] or a [bool]
    ({!int}, {!bits}, {!bool}, {!bernoulli}, {!geometric},
    {!draw_geometric}, {!pick}, {!shuffle}) allocate nothing.
    A [float] or [int64] result is boxed only when it crosses a module
    boundary, as any float or int64 return value is. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. Use one
    split per simulated component so that adding draws in one component does
    not perturb the stream seen by another. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val derive : int64 -> int -> int64
(** [derive seed i] is the seed of the [i]-th (0-based) child stream of
    [seed]: [create (derive seed i)] behaves exactly like the generator
    returned by the [(i+1)]-th call to {!split} on [create seed], but is
    computed in O(1). This lets a campaign address any leaf of a seed tree
    (cell [c], replicate [r]) directly, independent of evaluation order.
    Raises [Invalid_argument] if [i < 0]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** [bits t] is [Int64.to_int (int64 t)]: the low {!Sys.int_size} bits of
    the next raw output, one random bit per lane of a bit-sliced word.
    Allocates nothing. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0, n). Raises [Invalid_argument] if
    [n <= 0]. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [0, x). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p] (clamped to [0,1]). *)

val exponential : t -> mean:float -> float
(** Exponential variate with the given mean. *)

val geometric : t -> p:float -> int
(** Number of Bernoulli(p) failures before the first success; 0-based.
    One draw, none at [p = 1]. Values past the int range clamp to
    [max_int], which tiny [p] reaches routinely. Raises
    [Invalid_argument] unless [0 < p <= 1] (NaN included). This is the
    one-shot form of [draw_geometric t (geometric_of ~p)]. *)

type geometric
(** A geometric sampler with its parameter prepared: the logarithm that
    every draw divides by is computed once, when the sampler is built. *)

val geometric_of : p:float -> geometric
(** [geometric_of ~p] prepares a sampler for {!geometric}[ ~p]. Raises
    the same [Invalid_argument] as {!geometric} unless [0 < p <= 1]. *)

val draw_geometric : t -> geometric -> int
(** [draw_geometric t (geometric_of ~p)] returns exactly what
    [geometric t ~p] would, from the same draw, and allocates nothing. *)

val poisson : t -> mean:float -> int
(** Poisson variate (Knuth's method; suitable for small-to-moderate means). *)

val weibull : t -> shape:float -> scale:float -> float
(** Weibull variate; [shape] > 1 models aging (increasing hazard). *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian variate (Box-Muller). *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
