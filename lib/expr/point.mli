(** Compiled point evaluation.

    Expressions compiled once into postorder opcode programs that {!eval}
    runs over a flat float store indexed by dense property id, the point
    counterpart of {!Hc4.compile}. The simulated designer evaluates tool
    models and constraint sides this way on every decision, where
    {!Expr.eval_opt} would look every variable up by name.

    A set of programs lives in off-heap int32/float64 arrays and is
    immutable: all scratch is passed in by the caller, so one set can be
    shared by every designer of every run, across domains, and costs the
    OCaml heap nothing. Results are bit-identical to {!Expr.eval}: every
    node applies the same float operation ([**] with [float_of_int n],
    NaN-strict [min]/[max]). *)

type t
(** Programs [0 .. count-1], one per compiled expression. *)

val compile : var_id:(string -> int) -> Expr.t array -> t
(** Program [i] evaluates expression [i]. [var_id] maps each variable to
    its store index, or to a negative number for a name the store has no
    slot for (such an input is never available, see {!var}). *)

val nodes : t -> int -> int
(** Node count of a program: the scratch {!eval} needs. *)

val max_nodes : t -> int
(** The largest {!nodes} of the set (at least 1). *)

val vars_from : t -> int -> int
val vars_to : t -> int -> int
val var : t -> int -> int
(** A program's distinct variables, {!Expr.vars} order, are [var t k] for
    [k] from [vars_from t i] to [vars_to t i - 1]: their store indices
    (negative where [var_id] was). Before {!eval}, the caller loads the
    value of every one into the store; where an input has no value, the
    expression has none either (the [None] of {!Expr.eval_opt}) and
    {!eval} must not be called. *)

val mentions : t -> int -> int -> bool
(** [mentions t i x]: does program [i] read store index [x]? *)

val eval : t -> int -> env:float array -> stack:float array -> float
(** {!Expr.eval} of program [i] with each variable read from [env] at its
    store index. [stack] holds at least [nodes t i] floats and is
    overwritten. *)
