(** Closed real intervals.

    The numeric substrate of the constraint propagation engine: every design
    property's feasible subspace is tracked as a closed interval [\[lo, hi\]]
    (bounds may be infinite). Arithmetic follows standard interval-extension
    rules; inverse ("backward") operations implement the projections needed
    by HC4-style constraint revision.

    Intervals here are never empty: operations that can produce an empty
    result (intersection, inverse projections, partial functions such as
    [sqrt] and [ln]) return an [option], with [None] meaning empty. Plain
    floating-point rounding is used rather than outward rounding; the
    simulator compensates with tolerances where satisfaction is decided. *)

type t = private { lo : float; hi : float }
(** Invariant: [lo <= hi], neither is NaN. *)

val make : float -> float -> t
(** [make lo hi].
    @raise Invalid_argument if [lo > hi] or either bound is NaN. *)

val of_point : float -> t
(** Degenerate interval [\[x, x\]].
    @raise Invalid_argument on NaN. *)

val fmin : float -> float -> float
(** [fmin a b] is [Stdlib.min a b] typed at float: [a] when [a <= b],
    otherwise [b] — so [fmin nan x = x], [fmin x nan = nan] and
    [fmin 0. (-0.) = 0.], exactly as the polymorphic version, without
    boxing or a C comparison. *)

val lo : t -> float
val hi : t -> float

val is_bounded : t -> bool
(** True when both bounds are finite. *)

val mem : float -> t -> bool

val width : t -> float
(** [hi -. lo]; [infinity] for unbounded intervals. *)

val midpoint : t -> float
(** Finite midpoint; clamps toward the finite bound for half-infinite
    intervals and returns [0.] for [(-inf, +inf)]. *)

val intersect : t -> t -> t option

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Forward arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Extended division: when the divisor contains zero the result is the hull
    of the two real branches (possibly [(-inf, +inf)]). *)

val pow_int : t -> int -> t
(** [pow_int a n] for [n >= 0]. *)

val sqrt_i : t -> t option
(** [None] when the interval is entirely negative; otherwise the square root
    of the non-negative part. *)

val exp_i : t -> t
val ln_i : t -> t option
(** [None] when the interval is entirely non-positive; otherwise the log of
    the positive part. *)

val abs_i : t -> t
val min_i : t -> t -> t
val max_i : t -> t -> t

(** {1 Inverse projections (HC4 backward phase)}

    Each [inv_*] narrows one argument of a forward operation given the
    result's interval. For [z = x op y]: [inv_add_left z y] is the set of
    [x] compatible with [z] and [y]; intersect with the current [x] domain
    at the call site. [None] results signal an empty projection. *)

val inv_add_left : t -> t -> t
(** x from z = x + y: [z - y]. *)

val inv_sub_left : t -> t -> t
(** x from z = x - y: [z + y]. *)

val inv_sub_right : t -> t -> t
(** y from z = x - y: [x - z]. *)

val inv_mul : t -> t -> t
(** x from z = x * y: extended [z / y]. *)

val inv_div_left : t -> t -> t
(** x from z = x / y: [z * y]. *)

val inv_div_right : t -> t -> t
(** y from z = x / y: extended [x / z]. *)

val inv_pow_int : t -> int -> t option
(** x from z = x^n (hull over real branches; [None] if no real preimage). *)

val inv_sqrt : t -> t option
(** x from z = sqrt x: [z'^2] for the non-negative part [z'] of [z]. *)

val inv_exp : t -> t option
(** x from z = exp x: [ln z] on the positive part of [z]. *)

val inv_ln : t -> t
(** x from z = ln x: [exp z]. *)

val inv_abs : t -> t
(** x from z = |x|: hull of [z'] and [-z'] for the non-negative part [z']
    of [z]; unbounded subranges degrade gracefully. *)
