(** Property domains.

    A design property's value range E_i (Section 2.1 of the paper): values
    may be real numbers constrained to an interval, a finite ordered set of
    reals (e.g. discrete transistor widths), or a finite set of symbols
    (e.g. abstraction levels). The empty domain records that constraint
    propagation found every value infeasible — the paper's v_F(a_i) = emptyset
    case, which the simulated designer's value-selection function handles
    specially. *)

type t =
  | Empty
  | Continuous of Interval.t
  | Finite of float array  (** strictly increasing *)
  | Symbolic of string list  (** non-empty, duplicate-free *)

val continuous : float -> float -> t
(** [continuous lo hi] is [Continuous (Interval.make lo hi)]. *)

val finite : float list -> t
(** Sorts and deduplicates; empty input yields [Empty]. *)

val symbolic : string list -> t
(** Deduplicates, preserving first occurrence; empty input yields [Empty]. *)

val is_empty : t -> bool
val is_numeric : t -> bool
(** [Continuous] or [Finite] (or [Empty]). *)

val mem_num : float -> t -> bool
val mem_sym : string -> t -> bool

val hull : t -> Interval.t option
(** Smallest interval containing a numeric domain; [None] for [Empty] or
    [Symbolic]. *)

val refine : t -> Interval.t -> t
(** [refine d iv] removes from [d] every numeric value outside [iv].
    Symbolic domains are returned unchanged (propagation is numeric). *)

val measure : t -> float
(** Absolute size: interval width, finite cardinality (as float), symbol
    count; [0.] for [Empty] and for singletons. *)

val relative_measure : initial:t -> t -> float
(** Size of a domain relative to the initial range E_i, in [\[0, 1\]]; the
    unit-free "feasible subspace size" used for the smallest-subspace-first
    heuristic (the paper notes raw sizes are unit-dependent). Returns [1.]
    when the initial measure is zero. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
