(** A scenario compiled once.

    The paper's simulations all start from one fixed initial scenario
    (Section 3.1.2), and everything a run derives from it before the
    first designer turn is a pure function of it: the elaborated network
    and problem hierarchy, the HC4 kernels and dense views, the DPM
    layout, the influence table and, in ADPM mode, the kickoff
    propagation. A [Compiled.t] holds all of that for one mode, frozen
    ({!Dpm.freeze}); every run, interactive session and replay starts
    from a {!Dpm.instantiate}d copy, which shares the structure and owns
    the state a run mutates.

    The setup propagation is cached with the events it traced, so a run
    gets its post-setup state, its charged evaluations and its
    [Propagation_started]/[Propagation_finished] events exactly as if it
    had propagated itself. Every run propagates under
    {!Adpm_csp.Propagate.default_max_revisions}; a smaller budget, cached
    beside it, exists only for tests that need a setup cut short. *)

open Adpm_core

type t

val compile :
  models:(string * Adpm_expr.Expr.t) list ->
  mode:Dpm.mode ->
  (mode:Dpm.mode -> Dpm.t) ->
  t
(** Elaborate (call the builder once), freeze and analyse. *)

val influence : t -> Influence.t
(** The scenario's influence table, shared by every designer of every
    run. *)

val designers : t -> string list
(** The team roster ({!Dpm.designers} of the elaborated scenario). *)

val assigned_num : t -> string -> float option
(** A property's initial numeric value (a requirement), as elaborated.
    @raise Invalid_argument for an unknown property. *)

type setup
(** The ADPM setup propagation's result for one budget. *)

val start : ?max_revisions:int -> t -> Dpm.t * setup option
(** A fresh DPM for one run. In conventional mode it is a copy of the
    elaborated state and there is no setup. In ADPM mode it is a copy of
    the state the setup propagation leaves (boxes, statuses, feasible
    subspaces, [revision_work]), propagated once per [max_revisions]
    (default {!Adpm_csp.Propagate.default_max_revisions}) under a lock
    and cached. Safe to call from any domain; use the DPM from the calling
    one. *)

val setup_evaluations : setup -> int
(** What the setup propagation charged. *)

val setup_violated : setup -> int
(** How many constraints the setup propagation classified [Violated]. *)

val trace_setup : setup -> Adpm_trace.Tracer.t -> unit
(** Emit the setup propagation's events on an active tracer, as the
    propagation itself emitted them. *)
