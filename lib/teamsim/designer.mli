(** The simulated designer model (Section 3.1.1).

    A designer is a state-based system whose goal is to solve its assigned
    design problems. Each turn it applies the operation-selection function
    f_o = f_v . f_a . f_p to its view of the design:

    - {b f_p (problem selection)} keeps the assigned problems that are not
      [Waiting]; if no violations are known and every assigned problem is
      solved, the empty set is returned (the designer idles).
    - {b f_a (target property selection)}: with no known violations, the
      unbound design parameter with the smallest feasible subspace (ADPM;
      the conventional designer has no feasibility information and
      guesses); with violations, the parameter whose single directed move
      is likely to fix the most violations, counting violations that reach
      the parameter through the performance models it drives (the paper's
      "indirect" extension of Section 2.3.2). Ties break randomly.
    - {b f_v (value selection)}: from the feasible subspace when it is
      non-empty — the top or bottom value according to which direction
      satisfies the most constraints; from the initial range E_i otherwise,
      moving a bound ordered value by a delta about 100 times smaller than
      |E_i| in the direction likely to fix the most violations (with
      exponential growth and bisection on overshoot). The design history is
      consulted to avoid values that previously led to violations (tabu).

    A synthesis operation emulates a CAD-tool run: it binds the chosen
    design parameter {e and} every dependent performance property, which
    the tool recomputes from the scenario's model expressions.

    Conventional-mode designers additionally request verification
    operations — the only way they learn of violations — whenever their
    problems have bound-but-unverified constraints. *)

open Adpm_util
open Adpm_core

type t

type delivery = { dv_own : bool; dv_op : Operator.t; dv_result : Dpm.result }
(** One queued NM delivery: the outcome of an executed operation, tagged
    with whether it was this designer's own. *)

val create : Config.t -> rng:Rng.t -> influence:Influence.t -> string -> t
(** A designer deciding with the scenario's shared influence table (which
    also carries the tool models, compiled). Its scratch is sized for the
    table's network, whose structure a run cannot change. *)

val name : t -> string

val learn_statuses : t -> (int * Adpm_csp.Constr.status) list -> unit
(** Seed the designer's believed constraint statuses (the project kickoff:
    everyone leaves setup with the same picture of the network). Unknown
    constraints default to [Consistent], matching the DPM's own default. *)

val believed_snapshot : t -> (int * Adpm_csp.Constr.status) list
(** The believed-status table, sorted by constraint id — what this
    designer currently thinks the network looks like. Test and
    inspection hook for the fault model. *)

val restart : t -> unit
(** Model a crash/restart: the believed-status table, queued mailbox
    deliveries, repair adaptation and re-verification bookkeeping are
    lost; the designer rebuilds its picture only from subsequent
    deliveries. The tabu set survives — design history lives in the
    shared database, not in the designer's head. *)

val choose_operation : t -> Dpm.t -> Operator.t option
(** One turn: select the next operation, or [None] to idle (everything
    solved / nothing addressable). *)

val synthesis_with_tools :
  t -> Dpm.t -> string -> float -> Adpm_core.Operator.t option
(** Build the synthesis operation that assigns the given design parameter
    and lets the tool recompute every dependent performance property —
    the same operation {!choose_operation} would construct for that choice.
    [None] when the property is not an output of one of the designer's
    addressable problems. Used by interactive sessions where a human plays
    the designer. *)

val request_verification : t -> Dpm.t -> Operator.t option
(** Build the verification operation the designer would request now
    (conventional mode), if any. *)

val observe : t -> Dpm.t -> own:bool -> Operator.t -> Dpm.result -> unit
(** Feedback after the DPM executed an operation — the designer's own
    ([own = true]) or a teammate's whose outcome the Notification Manager
    relayed. Updates the believed constraint statuses from the result's
    status transitions, records tabu entries (assignments that produced
    violations, possibly discovered only at a later verification, possibly
    one run by the team leader at integration) and adapts the repair
    step. *)

(** {1 Inspection}

    What one decision computes, exposed for the equivalence tests. *)

val outputs : t -> Dpm.t -> string list * string list
(** The numeric outputs of the designer's addressable problems, split
    into design parameters it assigns and performance properties a tool
    model computes; both sorted by name. *)

val tool_run :
  t -> Dpm.t -> ?assign:string * float -> unit ->
  (string * Adpm_csp.Value.t) list
(** The tool assignments a synthesis of [assign] would carry besides
    [assign] itself: every performance property the models compute (to a
    fixpoint, reading [assign] over the network's value of that parameter)
    whose value differs from the network's, in name order.
    @raise Invalid_argument when [assign] names no property. *)

val headroom_value :
  t -> Dpm.t -> string -> Adpm_interval.Domain.t -> float option
(** The headroom policy's value for the design parameter from the given
    window, charging its constraint evaluations to the DPM. [None] when
    the parameter reaches no constraint or no candidate scores.
    @raise Invalid_argument for an unknown property. *)

val deliver : t -> own:bool -> Operator.t -> Dpm.result -> unit
(** Enqueue an operation outcome in the designer's mailbox without
    processing it. The discrete-event engine calls this when the
    notification's virtual delivery time arrives; the designer absorbs the
    queued deliveries at the start of its next turn ({!drain}). *)

val drain : t -> Dpm.t -> int
(** Process every queued delivery in arrival order through {!observe} and
    return how many there were. *)
