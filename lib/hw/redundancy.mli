(** Modular-redundancy reliability: closed forms and Monte-Carlo estimators.

    Backs experiment E1 (gate-level redundancy, Fig. 1 bottom layer): the
    classic result that TMR with reliability-R modules achieves
    R_TMR = 3R^2 - 2R^3, beating a simplex module only when R > 1/2, and the
    degradation caused by a fallible voter. *)

val binomial : int -> int -> float
(** [binomial n k] = C(n,k) as a float. *)

val r_simplex : float -> float
(** Identity; for symmetric tables. *)

val r_nmr : n:int -> float -> float
(** [r_nmr ~n r]: probability that a majority of [n] (odd) independent
    modules of reliability [r] are correct, with a perfect voter. *)

val r_tmr : float -> float
(** [r_nmr ~n:3]. *)

val r_nmr_with_voter : n:int -> voter:float -> float -> float
(** Voter in series: [voter *. r_nmr ~n r]. *)

(** {2 Monte-Carlo estimators}

    Both estimators place faults by geometric skip: every (trial, gate) or
    (trial, module) position fails independently with the given
    probability, and one {!Resoc_des.Rng.geometric} draw gives the gap to
    the next failing position, so a run costs one draw per fault rather
    than one per position. The estimates are equal in distribution to the
    earlier one-Bernoulli-per-position estimators but not value-identical:
    the RNG stream is consumed differently. Both raise [Invalid_argument]
    on non-positive [trials] and on a probability that is NaN or outside
    [0,1]. *)

val mc_module_nmr :
  Resoc_des.Rng.t -> n:int -> trials:int -> p_fail:float -> float
(** Monte-Carlo estimate of NMR system failure probability when each module
    fails independently with probability [p_fail]; perfect voter. Returns
    the estimated system failure probability. Failures are counted per
    trial as the faults stream past, in constant space. Raises
    [Invalid_argument] unless [n] is odd and positive. *)

val mc_circuit_correct :
  Resoc_des.Rng.t -> Circuit.t -> trials:int -> p_gate:float -> float
(** Fraction of random-input trials in which a faulty evaluation of the
    circuit matches its fault-free evaluation. This exercises real gate
    netlists, so the voter's own gates fail too.

    Bit-sliced: trials run in words of [Sys.int_size] lanes (63 on 64-bit
    hosts; the last word uses only the lanes it needs), each primary input
    gets one raw {!Resoc_des.Rng.int64} word per word of trials, and
    {!Circuit.eval_words} evaluates every gate once per word, golden and
    faulty. A word in which no fault lands is counted correct without
    drawing inputs or evaluating. *)
