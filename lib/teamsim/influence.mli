(** The static influence table behind the simulated designer's f_a/f_v
    decisions (Sections 2.3 and 3.1.1).

    Which constraints reach a design parameter — directly, or through a
    tool model of a performance property it drives (the "indirect"
    extension of Section 2.3.2) — and which way moving the parameter
    helps each of them depends only on a scenario's structure: its
    constraints, its immutable initial ranges E_i, its declared
    monotonicity and its models. None of that changes while a simulation
    runs, so the table is built once per scenario, with its {!Compiled}
    template, and shared, read-only, by every designer of every run of
    it.

    Layout: three off-heap int32 arrays, indexed through dense property
    ids ({!Adpm_csp.Network.prop}). [entries] holds, property after
    property, one value per reaching constraint in ascending id order
    (which is [Network.constraints] order): the constraint id shifted
    left by two, with one bit saying some argument route helps by an
    upward move and one by a downward move. [first] gives each
    property's offset into it; [endpoint] the two endpoint vote totals
    per property. The table is immutable once built.

    The table also carries the scenario's tool models and every
    constraint's two sides compiled into {!Adpm_expr.Point} programs over
    prop ids, which the designer evaluates on its own scratch, and the
    hull of every property's initial range. *)

open Adpm_expr
open Adpm_csp

type t

val analyse : models:(string * Expr.t) list -> Network.t -> t
(** Analyse the network's structure. [models] maps derived performance
    properties to the model expressions a synthesis tool evaluates (the
    first binding of a name wins). Monotonicity is taken from
    {!Network.helps_direction} for a constraint's own arguments and from
    {!Monotone.direction} over the initial-range hulls for a model in one
    of its inputs. *)

val prop_count : t -> int
val constraint_count : t -> int
(** The network size the table was built for. *)

val programs : t -> Point.t
(** The tool models and constraint sides, compiled; off-heap like the
    rest of the table. *)

val model : t -> int -> int
(** The program of a derived property's model (by prop id): the first
    binding of its name in [models]. [-1] for a design parameter. *)

val is_derived : t -> int -> bool

val clamp : t -> int -> float -> float
(** [clamp t pid raw] limits a finite tool output to the hull of the
    property's initial range (no limit where it has none). *)

val lhs : int -> int
val rhs : int -> int
(** The programs of a constraint's sides (by constraint id). *)

val touching : t -> int -> int array
(** Ids of the constraints reaching the property (by prop id), directly or
    through a model, in ascending order. A fresh array. *)

val reach_count : t -> int -> int
(** [Array.length (touching t pid)], without building the array. *)

val touches : t -> cid:int -> int -> bool
(** Does the constraint reach the property (by prop id)? *)

val repair_votes : t -> int -> violated:bool array -> int * int * int
(** [(up, down, alpha)] for a property (by prop id) over the constraints
    flagged in [violated] (indexed by constraint id): how many of them an
    upward (resp. downward) move of the property helps, and how many reach
    it at all. A constraint helped both ways through different arguments
    counts on both sides. *)

val motivated : t -> int -> violated:bool array -> int list
(** The flagged constraints reaching the property, ascending. *)

val endpoint_votes : t -> int -> int * int
(** [(up, down)]: over every constraint, the number of argument routes
    along which an upward (resp. downward) move of the property helps. *)
