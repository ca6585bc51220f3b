(** The network of constraints C_n.

    Holds every design property (with its initial range E_i, current
    assignment, and feasible subspace v_F from the last propagation) and
    every design constraint, plus the property-to-constraint adjacency used
    by the heuristic-support computations (alpha_i, beta_i) of Section 2.3.

    A network has two parts. Its {e structure} — properties, constraints,
    declared monotonicity and the views compiled from them (dense
    adjacency, argument ids, HC4 kernels) — is built by elaboration and,
    once {!freeze}d, shared read-only by every {!instantiate}d copy. Its
    {e state} — assignments, feasible subspaces, statuses, the dirty set
    and the persisted box store — is mutable and private to each
    network. *)

open Adpm_interval
open Adpm_expr

type prop = private {
  p_name : string;
  p_id : int;  (** dense index (insertion order), keys the flat stores *)
  p_initial : Domain.t;
  p_meta : (string * string) list;
}
(** Immutable: the assignment and feasible subspace live in the network
    ({!assigned_id}, {!feasible_id}). *)

type pstate = {
  ps_lo : float array;  (** lower bounds, indexed by dense prop id *)
  ps_hi : float array;  (** upper bounds, indexed by dense prop id *)
  ps_mask : bool array;
      (** [true] where the property has a box (numeric, not symbolic) *)
  ps_empties : (int, unit) Hashtbl.t;
      (** constraints proven unsatisfiable during that fixpoint *)
  ps_feasible : Domain.t array;
      (** by prop id, the feasible subspaces that fixpoint's final sweep
          classified (a symbolic property's is its initial range) *)
  ps_status : Constr.status array;
      (** by constraint id, the statuses that sweep classified: not
          {!status}, which verifications overwrite *)
}
(** Persistent propagation state: the contracted box store kept across
    design operations so the incremental engine can restart from the
    previous fixpoint instead of the initial ranges, and the result of
    the sweep that classified it, so the next sweep re-classifies only
    what moved. Struct-of-arrays float layout so HC4 kernels revise it
    without allocating. Never written in place once stored (a
    propagation stores a new one), so {!instantiate} shares it. *)

type t

val create : unit -> t

(** {1 Templates and instances} *)

val freeze : t -> unit
(** Compile the structure's views and mark the structure shared: from now
    on {!add_prop}, {!add_constraint} and {!declare_monotone} raise on
    this network and on every instance of it. *)

val frozen : t -> bool

type snapshot
(** The state a propagation writes: feasible subspaces, statuses, the
    persisted box store, the revision counter and the dirty set. *)

val snapshot : t -> snapshot
(** That state as the last propagation left it, for {!instantiate} to
    start from. The feasible subspaces are not copied: they are the
    persisted store's [ps_feasible].
    @raise Invalid_argument when the network holds no such result: no
    persisted box store, or subspaces applied since that are not the
    store's (the result of a non-persisting {!Propagate.run}). *)

val instantiate : ?at:snapshot -> t -> t
(** A network with the frozen network's structure (shared, not copied)
    and a copy of its state: assignments, feasible subspaces, statuses,
    revision counter, dirty set and persisted box store — the parts a
    propagation writes taken from [at] instead when it is given (a
    snapshot of another instance of the same structure). Nothing done to
    the instance writes the frozen network or the snapshot, so instances
    may run in any domains.
    @raise Invalid_argument unless the network is {!frozen}. *)

(** {1 Revision tracking}

    The revision counter increments on every mutation (assignments,
    structural additions, status and feasible updates), so memoised
    heuristic layers can key their caches on it. The dirty set records
    which properties changed assignment since the last time a propagation
    engine consumed it. *)

val revision : t -> int

val dirty_props : t -> string list
(** Properties assigned or unassigned since the last {!clear_dirty}
    (unspecified order). *)

val clear_dirty : t -> unit

val prop_state : t -> pstate option
(** The box store persisted by the last propagation run, if still valid.
    Structural changes ({!add_prop}, {!add_constraint}) invalidate
    it. *)

val store_prop_state : t -> pstate -> unit
val invalidate_prop_state : t -> unit

(** {1 Properties} *)

val add_prop : t -> ?meta:(string * string) list -> string -> Domain.t -> unit
(** @raise Invalid_argument on duplicate names, an [Empty] initial
    domain or a {!frozen} structure. *)

val prop_names : t -> string list
(** Insertion order. *)

val find_prop : t -> string -> prop
(** @raise Invalid_argument for unknown names, naming the property. *)

val mem_prop : t -> string -> bool

val prop_count : t -> int
(** Number of properties; dense prop ids range over [0 .. prop_count-1]. *)

val prop_by_id : t -> int -> prop

val prop_id : t -> string -> int
(** @raise Invalid_argument for unknown names. *)

val initial_domain : t -> string -> Domain.t
val feasible : t -> string -> Domain.t
val feasible_id : t -> int -> Domain.t
val assign : t -> string -> Value.t -> unit
(** Bind a property. Numeric assignments must be numeric-domain properties
    and symbolic assignments symbolic ones; the value need not lie inside
    the current feasible subspace (designers may choose infeasible values —
    that is what creates violations) but must lie in the initial range E_i.
    @raise Invalid_argument on kind mismatch or out-of-range values. *)

val check_assign : t -> string -> Value.t -> int
(** The checks {!assign} makes, without assigning anything: returns the
    property's dense id, so a caller can validate a whole batch of
    assignments before the first one lands.
    @raise Invalid_argument for an unknown property, or as {!assign}. *)

val assign_id : t -> int -> Value.t -> unit
(** {!assign} by dense property id (same checks, no name lookup). *)

val unassign : t -> string -> unit
val assigned : t -> string -> Value.t option
val assigned_id : t -> int -> Value.t option
val assigned_num : t -> string -> float option
val is_bound : t -> string -> bool
val all_numeric_bound : t -> bool
(** Every numeric property is bound (symbolic ones are ignored). *)

val box : t -> string -> Interval.t option
(** Interval view for propagation: the assigned point when bound, otherwise
    the hull of the initial range. [None] for symbolic properties. *)

(** {1 Constraints} *)

val add_constraint : t -> name:string -> Expr.t -> Constr.rel -> Expr.t -> Constr.t
(** Registers the constraint and its adjacency.
    @raise Invalid_argument if an argument property is unknown or
    symbolic, or the structure is {!frozen}. *)

val constraints : t -> Constr.t list
(** Insertion order. Compiled with the other views below: repeated calls
    return the same list physically until the next {!add_prop} or
    {!add_constraint}. *)

val find_constraint : t -> int -> Constr.t
(** @raise Invalid_argument for unknown ids, naming the id. *)

val constraint_count : t -> int

val constraints_of_prop : t -> string -> Constr.t list
(** Constraints mentioning the property, insertion order.
    @raise Invalid_argument for unknown properties. *)

(** {1 Flat propagation views}

    Derived dense-id views used by the propagation hot path, compiled
    together on first use. {!add_prop} and {!add_constraint} drop them
    (the next use compiles them all again); a {!frozen} structure keeps
    them for good. *)

val constraint_array : t -> Constr.t array
(** All constraints, indexed by their (dense) constraint id. *)

type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type adjacency = private {
  adj_first : ints;
      (** prop id -> offset of its first entry in [adj_cids];
          [adj_first.{prop_count}] is the total *)
  adj_cids : ints;
      (** per prop id in turn, the ids of the constraints mentioning it, in
          constraint insertion order *)
}
(** Off the OCaml heap: it lives as long as a compiled scenario. *)

val adjacency : t -> adjacency

val kernels : t -> Adpm_expr.Hc4.kernels
(** The compiled HC4 kernels of the constraints: kernel [i] is constraint
    [i]'s [diff] against its default [target]. Immutable and off-heap,
    shared by every instance. *)

val scratch : t -> Adpm_expr.Hc4.scratch
(** The calling domain's kernel scratch ({!Adpm_expr.Hc4.scratch}), large
    enough for every kernel of the network. *)

val arg_ids : t -> int array array
(** For each constraint id, the dense ids of its argument properties,
    ascending. *)

val status : t -> int -> Constr.status
(** Last recorded status; [Consistent] before any evaluation (and for
    ids the network does not know). Statuses live in an array indexed by
    constraint id. *)

val set_status : t -> int -> Constr.status -> unit
(** @raise Invalid_argument for an unknown constraint id. *)

val set_result :
  t -> feasible:Domain.t array -> statuses:Constr.status array -> unit
(** Store a propagation's result, [feasible] by prop id and [statuses] by
    constraint id, in one revision. Only entries that differ are written
    ([!=] for subspaces, [<>] for statuses), so a subspace the result
    shares with the network keeps its pointer. Neither array is kept.
    @raise Invalid_argument when a length is not the network's. *)

(** {1 Heuristic-support data (Section 2.3)} *)

val beta : t -> string -> int
(** Number of constraints mentioning the property. *)

val alpha : t -> string -> int
(** Number of currently-violated constraints mentioning the property
    (equation 3). *)

val declare_monotone : t -> int -> string -> Monotone.direction -> unit
(** DDDL-style declaration overriding the structural analysis: the recorded
    direction is that of the constraint's [diff] expression in the
    property.
    @raise Invalid_argument for unknown properties or a {!frozen}
    structure. *)

val helps_direction : t -> Constr.t -> string -> [ `Up | `Down | `None ]
(** Which way to move the property's value to help satisfy the constraint
    (the paper's constraint-monotonicity notion): [`Up] means increasing
    helps. Uses the declared direction when present, otherwise the
    structural analysis over initial ranges. [`None] when not monotone or
    for [Eq] relations with unknown slope. *)

(** {1 Ground truth} *)

val check_constraint_point : t -> Constr.t -> bool
(** Evaluate at the current assignment (all arguments must be bound).
    @raise Expr.Unbound_variable otherwise. *)

val solved : t -> bool
(** All numeric properties bound and every constraint satisfied at the
    assignment — the simulation termination condition of Section 3.1.2. *)
