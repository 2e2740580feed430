(** Deterministic pseudo-random number generation for simulations.

    SplitMix64 generator: fast, statistically sound for simulation purposes,
    and splittable, so every simulated component can own an independent
    stream derived from the experiment's master seed. All stochastic
    behaviour in resoc flows from one of these generators, which makes every
    run exactly reproducible from its seed. *)

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
    [Invalid_argument] unless [0 < p <= 1] (NaN included). *)

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
