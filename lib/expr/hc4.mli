(** HC4 revision: the propagation workhorse.

    The paper's Design Constraint Manager "runs a constraint propagation
    algorithm to compute infeasible property values and the status of all
    constraints" (Section 2.2), delegating numeric work to constraint-based
    systems. HC4 (Benhamou et al., "Revising hull and box consistency",
    ICLP 1999) is the classical such algorithm for arithmetic constraints:
    a forward interval-evaluation sweep annotates every node of the
    expression tree, then a backward sweep projects the constraint's target
    interval onto each variable, shrinking its domain.

    One call to {!revise} is one "constraint evaluation" in the paper's cost
    accounting. *)

open Adpm_interval

type result =
  | Empty
      (** No point of the box can satisfy the constraint: the constraint is
          certainly violated over the current domains. *)
  | Narrowed of (string * Interval.t) list
      (** For each variable of the expression, the narrowed interval (the
          intersection of its input box with every occurrence's projection).
          Unchanged variables are included. *)

val revise :
  env:(string -> Interval.t) -> Expr.t -> Interval.t -> result
(** [revise ~env e target] enforces [e IN target] on the box [env].
    [env] must provide an interval for every variable of [e]. *)

(** {1 Compiled flat kernel}

    The allocation-free fast path for the propagation inner loop: an
    expression is {!compile}d once into a postorder opcode program with
    preallocated scratch, then {!revise_kernel} revises it directly
    against a struct-of-arrays box store ([lo]/[hi] float arrays indexed
    by a dense property id). Results are bit-identical to {!revise} —
    every float formula mirrors the boxed [Interval] operations branch
    for branch, and the backward sweep recurses in the same order.
    In native code neither {!revise_kernel} nor {!eval_kernel} allocates
    on the OCaml heap. *)

type fpair = { mutable rlo : float; mutable rhi : float }

type kernel = {
  k_op : int array;
  k_a : int array;
  k_b : int array;
  k_cval : float array;
  k_vars : int array;
      (** dense ids of the expression's distinct variables, {!Expr.vars}
          order; slot [j] of the accumulators belongs to [k_vars.(j)] *)
  k_flo : float array;
  k_fhi : float array;
  k_blo : float array;
  k_bhi : float array;
  k_acc_lo : float array;
      (** after a successful {!revise_kernel}: narrowed lower bound per
          variable slot *)
  k_acc_hi : float array;
  k_tmp : fpair;
  k_tlo : float;
  k_thi : float;
}
(** Treat as read-only outside {!revise_kernel} and {!eval_kernel}; the
    scratch arrays make a kernel single-threaded — share it only within
    one domain. *)

val compile : var_id:(string -> int) -> Expr.t -> target:Interval.t -> kernel
(** [compile ~var_id e ~target] builds the kernel enforcing
    [e IN target]. [var_id] maps each variable of [e] to its dense store
    index. @raise Invalid_argument on a negative exponent. *)

val revise_kernel : kernel -> lo:float array -> hi:float array -> bool
(** One HC4 revision against the flat store. Returns [false] when the
    constraint is certainly unsatisfiable on the box (the boxed [Empty]);
    on [true] the narrowed per-variable intervals are left in
    [k_acc_lo]/[k_acc_hi] (slot order [k_vars]). The store itself is not
    written. *)

val eval_kernel : kernel -> lo:float array -> hi:float array -> bool
(** The forward half of {!revise_kernel} alone: evaluate the expression
    over the store's box, as {!Expr.eval_interval} does. Returns [false]
    where {!Expr.eval_interval} returns [None] ([sqrt] or [ln] of a box
    outside their domain); on [true] the root's interval is left in
    [k_flo]/[k_fhi] at index [Array.length k_op - 1]. The store is not
    written. *)
