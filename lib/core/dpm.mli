(** The Design Process Manager: the next-state function delta.

    Implements the transition model of Fig. 1. A designer submits an
    operation theta_n; the DPM applies its operator to the target problem
    and updates the design state. What happens next depends on the mode
    (the paper's lambda switch, Section 3.1.2):

    - {b Conventional} (lambda = F): no constraint propagation runs.
      Designers learn of violations and infeasible values only by requesting
      verification operations, which execute only when their input
      properties are bound; constraints relating multiple subproblems are
      evaluated only when all involved subproblems are solved and none of
      their internal constraints is known-violated. A constraint's verified
      status goes stale as soon as one of its arguments is reassigned.

    - {b ADPM} (lambda = T): after every operation the Design Constraint
      Manager runs constraint propagation, computing infeasible property
      values and the status of all constraints — the heuristic-support
      data ({!Network.feasible}, {!Network.alpha}, {!Network.beta}) — and
      the Notification Manager pushes relevant events to each affected
      designer.

    The DPM also maintains the paper's cost accounting: executed operations
    N_O, constraint evaluations N_T, and design spins (operations motivated
    by a cross-subsystem violation). *)

open Adpm_csp

type mode = Conventional | Adpm

val mode_to_string : mode -> string

val mode_of_string : string -> mode option
(** Inverse of {!mode_to_string} (also accepts ["adpm"]); used when
    decoding recorded traces. *)

type t

type result = {
  r_index : int;  (** 1-based index of this operation *)
  r_evaluations : int;  (** constraint evaluations caused by the operation *)
  r_newly_violated : int list;
      (** constraints whose known status switched to Violated *)
  r_resolved : int list;
      (** constraints whose known status left Violated for Satisfied *)
  r_status_changes : (int * Constr.status * Constr.status) list;
      (** every known-status transition [(cid, before, after)] the
          operation caused, sorted by constraint id — including
          conventional-mode freshness decay (Violated -> Consistent when a
          verified constraint's argument is reassigned), which
          [r_newly_violated]/[r_resolved] do not cover. Deferred-delivery
          designers rebuild their believed statuses from this list. *)
  r_skipped : int list;
      (** requested verifications that were not eligible *)
  r_notifications : Notify.notification list;
  r_spin : bool;
}

(** {1 Construction} *)

val create :
  mode:mode ->
  ?max_revisions:int ->
  Network.t ->
  objects:Design_object.t list ->
  top:Problem.t ->
  t
(** Take ownership of the network and problem hierarchy root. Additional
    problems enter via decomposition operations or {!register_problem}. *)

val register_problem : t -> parent:int option -> Problem.t -> unit
(** Scenario-construction hook: attach a pre-built problem. Problem ids
    must be unique and non-negative. *)

val fresh_problem_id : t -> int

(** {1 Templates and instances}

    A scenario is elaborated once; each run starts from a copy. *)

val freeze : t -> unit
(** Build the dense layout (the NM routing, argument ids, status order,
    problem outputs, owned constraints, objects by property,
    cross-subsystem flags) and {!Network.freeze} the network. A frozen
    DPM is a template: never apply operations to it. *)

type propagated
(** What the propagations a DPM ran left in it: the network state they
    wrote ({!Network.snapshot}) and the {!revision_work} they charged. *)

val propagated : t -> propagated

val instantiate : ?from:propagated -> t -> t
(** A DPM in the frozen one's state that shares its structure and layout
    and owns copies of everything a run mutates: the network's state
    ({!Network.instantiate}), problem records, design objects,
    freshness stamps, counters. With [from] (taken from an instance of
    the same template), the network state and [revision_work] are those
    propagations left. Its tracer is [Tracer.null]. Registering a
    problem (a decomposition) gives it a layout of its own; the template
    is never written.
    @raise Invalid_argument unless the DPM is frozen. *)

val recompile : t -> unit
(** Drop the layout, to be rebuilt on next use: what a (test-only)
    structural edit of a DPM's own, unfrozen network must be followed
    by. *)

(** {1 Accessors} *)

val mode : t -> mode

val max_revisions : t -> int
(** The propagation budget given at {!create}. *)

val network : t -> Network.t
val top_problem : t -> Problem.t
val problems : t -> Problem.t list
(** Insertion order. *)

val problems_owned_by : t -> string -> Problem.t list

val owned_problems : t -> string -> Problem.t array
(** {!problems_owned_by} as an array, read from the dense layout: the
    same array (physically) until a problem registration or
    {!recompile}, so callers can key caches on it. Do not mutate. *)

val objects : t -> Design_object.t list
val find_object : t -> string -> Design_object.t option
val designers : t -> string list
(** Distinct problem owners, in first-seen problem order. Read from the
    compiled routing table, which is rebuilt after a problem
    registration. *)

val op_count : t -> int
val eval_count : t -> int
val spin_count : t -> int

val revision_work : t -> int
(** Total HC4 revisions performed by the propagations this DPM ran
    (synthesis/decomposition updates and {!run_propagation}) — the
    implementation-cost counter the incremental engine reduces, separate
    from the paper's evaluation unit N_T. *)

(** {1 Propagation} *)

val run_propagation : ?max_revisions:int -> t -> Adpm_csp.Propagate.outcome
(** Propagate over the network and apply the results
    ({!Adpm_csp.Propagate.run_incremental_and_apply}: a restart from the
    box store persisted in the network, seeded with the constraints of
    dirty properties, falling back to a from-scratch run when that is
    not sound) — the entry point the simulation engine uses for the pre-turn
    setup propagation. [max_revisions] defaults to the value given at
    {!create}. *)

(** {1 Tracing} *)

val set_tracer : t -> Adpm_trace.Tracer.t -> unit
(** Attach a tracer after construction (scenario builders need no trace
    awareness). The DPM advances the tracer's logical clock to the
    operation index at the start of every {!apply} and emits
    [Op_executed], [Constraint_status_changed], and (via the NM)
    [Notification_pushed] events; propagation runs inside the transition
    carry the tracer too. Defaults to [Tracer.null]: tracing disabled. *)

val tracer : t -> Adpm_trace.Tracer.t

val charge_evaluations : t -> int -> unit
(** Add externally-incurred constraint evaluations to N_T. The replay
    driver uses this to re-charge decision-time evaluation costs (relaxed
    feasibility queries recorded in [Op_submitted] events) so that replayed
    N_T totals match the live run exactly. Negative amounts are ignored. *)

(** {1 Mode-aware knowledge} *)

val known_status : t -> int -> Constr.status
(** The status a designer can rely on. In ADPM mode, the latest propagation
    result. In conventional mode, the last verified status — unless an
    argument was reassigned since, in which case [Consistent] (unknown). *)

val known_violated : t -> int -> bool
(** [known_status t cid = Violated], without the freshness test when the
    recorded status is not [Violated]. *)

val known_violations : t -> int list
(** Constraint ids with [known_status = Violated]. *)

val known_statuses : t -> (int * Constr.status) list
(** [known_status] of every constraint, in network constraint order. The
    simulation engine snapshots this after the ADPM setup propagation to
    seed each designer's believed statuses (the kickoff meeting). *)

val relaxed_feasible : t -> string -> Adpm_interval.Domain.t
(** ADPM only: feasible subspace of a property ignoring its own assignment
    (constraint-margin information used during conflict resolution). The
    propagation this needs is charged to the evaluation counter.
    @raise Invalid_argument in conventional mode. *)

val relaxed_feasible_group :
  t -> target:string -> unpin:string list -> Adpm_interval.Domain.t
(** As {!relaxed_feasible} but also ignoring the assignments of [unpin]
    (the performance properties the target parameter drives).
    @raise Invalid_argument in conventional mode. *)

val eligible_verifications : t -> designer:string -> int list
(** Constraints the given designer could usefully verify now, respecting
    the mode's eligibility rules and skipping fresh statuses. *)

val is_cross_subsystem : t -> Constr.t -> bool
(** Do the constraint's arguments span at least two subsystems? *)

val solved : t -> bool
(** The top-level problem is Solved — i.e. every output has a value and no
    constraint is (known) violated, established through the mode's own
    information channels. *)

val ground_truth_solved : t -> bool
(** Oracle check (for tests and the simulation engine's safety net): all
    numeric properties bound and all constraints actually satisfied. *)

(** {1 The transition} *)

val apply : t -> Operator.t -> result
(** Execute one design operation and perform the mode's state update.
    @raise Invalid_argument for malformed operations: an unknown problem;
    an assignment to a property outside the problem's outputs, of the
    wrong kind or outside its initial range; an unknown constraint id
    among the verifications, the [op_motivated_by] list or a
    decomposition's constraints; a decomposition naming an unknown output
    or sibling. Everything is checked before anything changes, so a
    rejected operation leaves the DPM, its network and its trace as they
    were. *)

val validate : t -> Operator.t -> unit
(** Only the checks {!apply} makes before it changes anything: a caller
    can validate an operation before recording that it was submitted.
    @raise Invalid_argument for a malformed operation, as {!apply} does. *)

val shift_requirement :
  t -> prop:string -> value:float -> (int * Constr.status * Constr.status) list
(** Re-assign a requirement property mid-run — the adaptability workload's
    "the goalposts moved" transition. Unlike {!apply} it is not a design
    operation: no operation index is consumed and no [Op_executed] event
    is traced. The assignment is stamped newer than every executed operation,
    so conventional-mode verifications of the affected constraints go
    stale; in ADPM mode one propagation runs immediately (its evaluations
    are charged to the run). Returns the known-status changes, which are
    also traced as [Constraint_status_changed] events.
    @raise Invalid_argument for an unknown property. *)
