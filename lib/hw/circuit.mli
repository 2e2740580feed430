(** Gate-level combinational circuits with fault injection.

    A circuit is a topologically ordered netlist of primitive gates. Each
    gate evaluation can be upset with a per-gate failure probability,
    flipping its output — the fault model behind the gate-level redundancy
    arguments of Fig. 1's bottom layer (refs [13]-[18] of the paper). *)

type kind =
  | Input of int  (** [Input k]: the circuit's k-th primary input. *)
  | Const of bool
  | Not of int
  | Buf of int
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Nand of int * int
  | Nor of int * int
(** Operand values are indices of earlier gates in the netlist. *)

type t

val build : n_inputs:int -> kind array -> outputs:int array -> t
(** Validates that operand indices only reference earlier gates and that
    input/output indices are in range. Raises [Invalid_argument] otherwise. *)

val n_inputs : t -> int

val n_outputs : t -> int

val gate_count : t -> int
(** Number of fallible gates (inputs and constants excluded). *)

val size : t -> int
(** Number of netlist nodes, inputs and constants included: gate indices
    run over [0, size). *)

val outputs : t -> int array
(** Gate indices of the outputs, in output order (a fresh copy). *)

val fallible_gates : t -> int array
(** Indices of the fallible gates (everything but inputs and constants),
    ascending; its length is {!gate_count}. *)

val eval : t -> bool array -> bool array
(** Fault-free evaluation. *)

val eval_flipped : t -> flipped:(int -> bool) -> bool array -> bool array
(** Evaluation in which the output of every fallible gate [i] with
    [flipped i] is inverted; [flipped] is asked once per fallible gate, in
    index order. The scalar reference for {!eval_words}. *)

val eval_words : t -> inputs:int array -> flips:int array -> int array -> unit
(** [eval_words t ~inputs ~flips values] is a bit-sliced evaluation: every
    bit lane of an OCaml [int] ([Sys.int_size] of them, 63 on 64-bit hosts)
    is one independent evaluation. [inputs.(k)] holds input [k]'s bit in
    every lane; each gate is evaluated once with [land]/[lor]/[lxor]/[lnot]
    and a fallible gate [i]'s word is then XORed with [flips.(i)], so lane
    [l] of gate [i] is upset iff bit [l] of [flips.(i)] is set ([flips] of
    inputs and constants is ignored). Every gate's word is written to
    [values]. Lane [l] of [values.(o)] for an output [o] equals
    [eval_flipped] on lane [l]'s inputs with lane [l]'s flips. [flips] and
    [values] need {!size} words, [inputs] {!n_inputs}; raises
    [Invalid_argument] otherwise. Allocates nothing. *)

(** Library of builders. *)

val majority3 : t
(** 3-input majority voter (4 gates). *)

val majority : int -> t
(** [majority n] for odd [n]: n-input majority (sorting-network free,
    threshold via adder tree of AND/OR/XOR gates). *)

val xor_tree : int -> t
(** n-input parity. *)

val random_logic : Resoc_des.Rng.t -> n_inputs:int -> n_gates:int -> t
(** Random connected combinational logic with one output; stands in for
    "some functionality" of a given complexity in E9. *)

val replicate_with_voter : t -> int -> t
(** [replicate_with_voter c n] instantiates [n] copies of single-output
    circuit [c] on shared inputs and votes their outputs with [majority n];
    the voter gates are as fallible as the rest (the classic TMR caveat). *)
