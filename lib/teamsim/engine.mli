(** The simulation engine.

    Drives a scenario on a virtual clock: simulated designers take turns
    requesting operations (in a per-round shuffled order — designers act
    independently), the DPM executes them, and statistics are captured per
    operation. A simulation terminates when the top-level problem is
    solved — all outputs have a value and no constraint is violated
    (Section 3.1.2) — or when every designer idles for a full round, or
    when the operation budget runs out.

    {!run} is a discrete-event scheduler ({!Adpm_sim.Scheduler}): each
    operation occupies a configurable virtual duration
    ([Config.duration_model]) and the Notification Manager's outcome
    broadcasts reach teammate mailboxes [Config.latency] ticks after the
    operation completes (a designer's own feedback is instant). Designers
    absorb queued deliveries at the start of their next turn. At latency 0
    this is {b bit-identical} — full summary, per-op profile included — to
    a lockstep loop in which every designer observes every outcome right
    after it executes; a recorded fixture of that loop's summaries pins
    the equivalence. *)

open Adpm_core

type outcome = {
  o_summary : Metrics.run_summary;
  o_dpm : Dpm.t;  (** final state, for inspection *)
  o_makespan : int;
      (** final virtual-clock reading in scheduler ticks. Under the unit
          duration model and latency 0 this equals the operation count. *)
}

val run :
  ?on_op:(Metrics.op_record -> unit) ->
  ?tracer:Adpm_trace.Tracer.t ->
  Config.t ->
  Scenario.t ->
  outcome
(** Execute one simulation on the discrete-event scheduler. In ADPM mode an
    initial propagation runs before the first designer turn (constraints
    are propagated "beginning when these constraints are generated"); its
    evaluations are charged to the run as a setup record. The run starts
    from the scenario's {!Compiled} template, so that propagation is
    computed once per scenario and copied (with its events)
    into every run.

    With an active [tracer] the engine emits the run lifecycle
    ([Run_started], one [Op_submitted] per accepted operation carrying its
    decision-time evaluation cost, [Op_completed] with the virtual
    completion time, [Notification_delivered] for each routed teammate
    delivery, [Run_finished]) and attaches the tracer to the DPM so
    execution-level events flow through the same stream. The caller owns
    the tracer and must [Tracer.close] it.

    @raise Invalid_argument if the configuration fails
    {!Config.validate}. *)

val start :
  tracer:Adpm_trace.Tracer.t ->
  Config.t ->
  Scenario.t ->
  order:string list ->
  record:(Metrics.op_record -> unit) ->
  Dpm.t * Adpm_util.Rng.t * Designer.t list * int
(** A run's start, before its first turn, and an interactive session's
    ({!Interactive.create}): the run's copy of the compiled scenario
    (after the ADPM setup propagation) with [tracer] attached,
    [Run_started], the root generator seeded from [Config.seed], one
    designer per name of [order] in that order, each on its own
    [Rng.split] of the root, the setup propagation's events and its
    record passed to [record], and the kickoff statuses every designer
    learns. Returns the DPM, the root generator (the run's turn-order
    shuffles and fault stream draw from it next), the designers and the
    setup's evaluations (0 in conventional mode). {!run} passes the
    roster as [order]; a session passes its player first, then the
    teammates in roster order. *)

val prepare : Config.t -> Scenario.t -> Dpm.t * Designer.t list
(** What {!run} does before the first designer turn, untraced: the run's
    copy of the compiled scenario (after the ADPM setup propagation) and
    its designers, kickoff statuses learned. For benchmarks and tests. *)

val run_many :
  ?jobs:int -> Config.t -> Scenario.t -> seeds:int list -> Metrics.run_summary list
(** One run per seed (via {!run}), same configuration otherwise.

    [jobs] (default 1) shards the seed list across that many domains of
    {!Adpm_parallel.Dpool}; with [jobs <= 1] or a single seed the calling
    domain runs every seed and nothing is spawned. The result is
    {b bit-identical} for any [jobs] — same summaries, same seed order —
    because each seed's run owns its Rng stream and its copy of the
    compiled scenario ({!Scenario.compiled}).

    @raise Failure naming the lowest failing seed if a run raises, at any
    [jobs] (no silent partial aggregates). *)
