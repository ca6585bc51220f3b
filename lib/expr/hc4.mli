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
    expression is {!compile}d once into a postorder opcode program, then
    {!revise_kernel} revises it directly against a struct-of-arrays box
    store ([lo]/[hi] float arrays indexed by a dense property id), working
    in a {!scratch}. Results are bit-identical to {!revise} — every float
    formula mirrors the boxed [Interval] operations branch for branch,
    and the backward sweep recurses in the same order. In native code
    neither {!revise_kernel} nor {!eval_kernel} allocates on the OCaml
    heap. *)

type fpair = { mutable rlo : float; mutable rhi : float }

type kernels
(** The compiled programs of a set of expressions (a network's
    constraints), kernel [i] enforcing [e_i IN target_i]. Immutable and
    off the OCaml heap, so one set serves any number of networks and
    domains and costs a long-lived scenario only its bytes. *)

type scratch = private {
  s_flo : float array;
      (** after {!eval_kernel} (or the forward half of {!revise_kernel}):
          each node's interval; the root is at [nodes ks i - 1] *)
  s_fhi : float array;
  s_blo : float array;
  s_bhi : float array;
  s_acc_lo : float array;
      (** after a successful {!revise_kernel}: narrowed lower bound per
          variable slot *)
  s_acc_hi : float array;
  s_tmp : fpair;
}
(** The mutable working arrays of a revision. *)

val compile_set :
  var_id:(string -> int) -> (Expr.t * Interval.t) array -> kernels
(** [compile_set ~var_id cases] compiles kernel [i] enforcing
    [fst cases.(i) IN snd cases.(i)]. [var_id] maps each variable to its
    dense store index. @raise Invalid_argument on a negative exponent. *)

val compile : var_id:(string -> int) -> Expr.t -> target:Interval.t -> kernels
(** A set of one: kernel [0]. *)

val count : kernels -> int

val nodes : kernels -> int -> int
(** Kernel [i]'s node count; its root's interval sits at [nodes - 1] of
    the scratch after an evaluation. *)

val arity : kernels -> int -> int
(** Kernel [i]'s distinct variables: its accumulator slots. *)

val var : kernels -> int -> int -> int
(** [var ks i j]: the store id of kernel [i]'s slot [j] ({!Expr.vars}
    order). *)

val max_nodes : kernels -> int
val max_slots : kernels -> int
(** The scratch the set needs. *)

val scratch : nodes:int -> slots:int -> scratch
(** The calling domain's own scratch, grown to at least these sizes: one
    per domain, so kernels are never revised on scratch another domain
    is using. Valid until the next call from the same domain with larger
    sizes. *)

val revise_kernel :
  kernels -> int -> scratch -> lo:float array -> hi:float array -> bool
(** [revise_kernel ks i sc]: one HC4 revision of kernel [i] against the
    flat store, in a scratch sized for the set. Returns [false] when the
    constraint is certainly unsatisfiable on the box (the boxed [Empty]);
    on [true] the narrowed per-variable intervals are left in
    [s_acc_lo]/[s_acc_hi] (slot [j] for {!var}[ ks i j]). The store itself
    is not written. *)

val eval_kernel :
  kernels -> int -> scratch -> lo:float array -> hi:float array -> bool
(** The forward half of {!revise_kernel} alone: evaluate the expression
    over the store's box, as {!Expr.eval_interval} does. Returns [false]
    where {!Expr.eval_interval} returns [None] ([sqrt] or [ln] of a box
    outside their domain); on [true] the root's interval is left in
    [s_flo]/[s_fhi] at index [nodes ks i - 1]. The store is not
    written. *)
