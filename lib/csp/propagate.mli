(** Constraint propagation to fixpoint.

    Implements the Design Constraint Manager's propagation step
    (Section 2.2): starting from the current argument values — the assigned
    point for bound properties, the initial range E_i for unbound ones —
    HC4-revise every constraint until no domain changes, then classify every
    constraint's status. The result is the feasible subspace v_F(a_i) of
    every property plus the status of every constraint.

    Every HC4 revision and every final status classification counts as one
    "constraint evaluation", the cost unit of the paper's evaluation
    (each corresponds to a run of a constraint-based system or verification
    tool in the real environment).

    Two consistency levels are available: hull consistency (the default,
    one HC4 fixpoint) and a stronger 3B-style {e bound shaving} that tries
    to refute the outermost slices of each unbound variable's box with
    probe propagations — narrower feasible subspaces at a higher
    evaluation cost. *)

open Adpm_interval

(** @see <../trace/tracer.mli> the emit-path contract. *)

type outcome = {
  feasible : Domain.t array;
      (** Feasible subspace by prop id (a symbolic property's is its
          initial range). *)
  statuses : Constr.status array;  (** Status by constraint id. *)
  evaluations : int;  (** Constraint evaluations performed. *)
  revisions : int;
      (** HC4 revisions performed (the evaluation total minus the final
          status sweep) — the implementation work the incremental engine
          reduces, reported separately from the paper's evaluation cost
          unit. *)
  fixpoint : bool;  (** False when stopped by the revision budget. *)
}

val default_max_revisions : int
(** The revision budget a propagation gets when its caller names none:
    10_000, far above what any built-in or generated network needs to
    reach its fixpoint. *)

val run :
  ?max_revisions:int ->
  ?consistency:[ `Hull | `Shave of int ] ->
  ?tracer:Adpm_trace.Tracer.t ->
  Network.t ->
  outcome
(** Pure with respect to the network: reads assignments and initial domains,
    writes nothing. [max_revisions] (default {!default_max_revisions})
    bounds non-terminating slow convergence. A projection is applied
    (and its constraints requeued) exactly when it narrows the box: a
    finite width must shrink, an infinite one must become finite or move
    a bound. There is no
    narrowing threshold: HC4's built-in magnitude-relative projection
    slack already quantises narrowings and guarantees termination, and
    accepting every narrowing keeps the gated revision operator monotone,
    which makes the fixpoint independent of revision order — the property
    the incremental engine's bit-identical equivalence with from-scratch
    runs rests on.
    [consistency] defaults to [`Hull]; [`Shave n] additionally shaves each
    unbound variable's bounds in [1/n]-width slices (n >= 2). The
    outcome's arrays are the caller's own.

    When an active [tracer] is supplied, one [Propagation_started] /
    [Propagation_finished] event pair is emitted per call; the finish event
    carries per-wave revision counts of the primary HC4 fixpoint (shaving
    probes are charged to the evaluation total but not waved). *)

val apply : Network.t -> outcome -> unit
(** Store feasible subspaces and statuses into the network
    ({!Network.set_result}: only entries that differ are written). *)

val run_incremental_and_apply :
  ?max_revisions:int ->
  ?tracer:Adpm_trace.Tracer.t ->
  Network.t ->
  outcome
(** Incremental propagation (hull consistency only), then {!apply}.
    Restarts from the box store persisted in the network by the previous
    call ({!Network.prop_state}), seeding the worklist with only the
    constraints of properties whose assignment changed since then
    ({!Network.dirty_props}).

    Soundness: propagation is a fair chaotic iteration of monotone
    contracting revision operators, so the restart converges to the same
    (bit-identical) fixpoint as a from-scratch run — provided the restart
    only {e narrows} the start and no constraint turns empty. Concretely,
    the incremental path is used only when every dirty property's fresh
    box lies inside its stored contracted box and the stored state carries
    no empty marks; if the seeded run then discovers an empty constraint
    (a conflicting assignment), the attempt is discarded and a full run
    replaces it, inheriting the attempt's revision count. On any widening
    (unassignment, assignment outside the stored box), on structural
    changes (which invalidate the stored state), and on the first call, it
    likewise falls back to a full from-scratch run. Either way the
    contracted store and the outcome's arrays are persisted back into the
    network ({!Network.pstate}) and the dirty set cleared. The outcome's
    arrays are shared with that store and with every instance made from
    it: they are not to be written.

    The final status sweep is classified against the previous persisted
    result: a property whose contracted box is bit for bit the stored one
    keeps the stored subspace (the same pointer, so {!apply} leaves it
    alone), and a constraint is evaluated again only when one of its
    arguments' boxes moved or its empty mark flipped. The outcome is the
    full sweep's, bit for bit.

    The [evaluations] total charges one unit per HC4 revision performed
    plus the full status sweep, so a seeded restart is charged fewer
    evaluations than a from-scratch {!run} of the same network; a caller
    that needs the from-scratch charge drops the persisted state first
    ({!Network.invalidate_prop_state}). *)

val relaxed_feasible_group :
  ?max_revisions:int ->
  Network.t ->
  target:string ->
  unpin:string list ->
  Domain.t * int
(** [relaxed_feasible_group net ~target ~unpin]: the feasible subspace of
    [target] computed with the assignments of [target] and of the [unpin]
    properties ignored (all other assignments kept) — the "constraint
    margin" trade-off information the browser of Fig. 2 shows for bound
    properties and that conflict resolution exploits. [unpin] lists the
    dependent performance properties that must be free to move with a
    design parameter. Returns the domain and the number of constraint
    evaluations spent.

    The query runs on a scratch box store filled from the network, so
    they write nothing to it: its {!Network.revision}, dirty set and
    persisted {!Network.prop_state} are unchanged, and a memo keyed on the
    revision stays valid across them. The answer and the evaluation
    charge are those of {!run} on a copy of the network with [target] and
    [unpin] unassigned. *)
