(** Design constraints.

    A design constraint (Section 2.1, equation 1) is a relation between two
    arithmetic expressions of design properties. Its status with respect to
    the current argument values is three-valued: {e satisfied} when the
    relation holds for every combination of values in the current domains,
    {e violated} when it fails for every combination, {e consistent}
    otherwise. *)

open Adpm_interval
open Adpm_expr

type rel = Le | Ge | Eq

type status = Satisfied | Violated | Consistent

type t = private {
  id : int;  (** unique within a network *)
  name : string;
  lhs : Expr.t;
  rel : rel;
  rhs : Expr.t;
  c_args : string list;  (** memoised {!args}; use the accessor *)
  c_diff : Expr.t;  (** memoised {!diff}; use the accessor *)
}

val make : id:int -> name:string -> Expr.t -> rel -> Expr.t -> t

val args : t -> string list
(** Distinct properties mentioned, left-to-right. Memoised at
    construction; the list is shared, never rebuilt. *)

val diff : t -> Expr.t
(** [lhs - rhs]: the normalised form used for propagation. Memoised at
    construction so hot loops don't re-allocate the [Sub] node. *)

val target : ?eps:float -> t -> Interval.t
(** Interval that [diff] must lie in for the constraint to hold.
    [eps] (default [1e-9]) widens the target to absorb rounding. *)

val check_point : ?eps:float -> (string -> float) -> t -> bool
(** Ground truth at a full assignment. *)

val status_on_box : ?eps:float -> (string -> Interval.t) -> t -> status
(** Status over a box of current argument values. A box on which the
    expressions are undefined everywhere yields [Violated]. *)

val kernel_status : t -> Hc4.kernels -> int -> Hc4.scratch -> status
(** [kernel_status c ks i sc]: the {!status_on_box} of [c] (default
    [eps]) read from the root interval that a successful
    {!Hc4.eval_kernel} of kernel [i] of [ks], [c]'s compiled [diff], left
    in [sc]. The same comparisons on the same floats, without boxing an
    interval. *)

val pp_status : Format.formatter -> status -> unit
val status_to_string : status -> string
val to_string : t -> string
