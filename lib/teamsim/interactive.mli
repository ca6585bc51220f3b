(** Interactive design sessions.

    "Minerva III's interactive windows can also be viewed and used during
    simulations" (Section 3.1): here a human plays one designer while the
    remaining team members are simulated. The session exposes the same
    browsers the paper's figures show and executes operations through the
    same DPM the simulator uses; command parsing is pure string-in /
    string-out so clients (the CLI, tests) just feed lines. *)

open Adpm_core

type t

val create :
  ?tracer:Adpm_trace.Tracer.t ->
  mode:Dpm.mode ->
  seed:int ->
  Scenario.t ->
  designer:string ->
  t
(** Start a session playing [designer], as {!Engine.start} starts a run
    at [seed] with the default configuration: the player's designer model
    takes the first split of the generator, the teammates the next ones
    in roster order. In ADPM mode the setup propagation has run.

    [?tracer] (default disabled) is attached to the DPM and additionally
    receives the engine-level framing events — [Run_started] up front and
    [Op_submitted] (with decision-time evaluation deltas) before every
    applied operation, none for an operation the DPM rejects — so the
    recorded stream is replayable by the stock
    [Replay] driver once a closing [Run_finished] is appended (the
    teamsimd checkpoint writer does exactly that).
    @raise Invalid_argument if the scenario has no such designer. *)

val prompt : t -> string
(** Short status line for the prompt: mode, operations so far, known
    violations. *)

val finished : t -> bool
(** The top-level problem is solved. *)

val execute : t -> string -> (string, string) result
(** Run one command line; [Ok output] or [Error message]. Commands:

    - [help] — list commands
    - [status] — problems, own outputs with values, known violations
    - [browse OBJECT] — the Fig. 2 object browser
    - [props] — the Fig. 3 property browser over the player's properties
    - [conflicts] — the Fig. 4 conflict-resolution view
    - [set PROP VALUE] — synthesis operation (the tool recomputes dependent
      performance properties)
    - [verify] — request the verification the designer would issue now
    - [suggest] — show the operation the simulated designer model would
      pick, without executing it
    - [auto] — execute that operation
    - [step] — every other (simulated) team member takes one turn

    Never raises on a command: [Invalid_argument] escaping a designer
    decision or a [Dpm.apply] (on any command path, not just [set])
    comes back as [Error msg], so a daemon session loop survives
    hostile or unlucky input. *)

val replay : t -> string -> unit
(** Make the state effects of one command line and nothing else: exactly
    those {!execute} makes on the same line — every designer choice (RNG
    draws, tabu memory), every applied operation, every evaluation
    [browse] charges and every trace event — without building the reply.
    Views with nothing to compute ([help], [status], [props],
    [conflicts], blank lines, unknown commands, unparseable [set]) cost
    nothing. For rebuilding a session from its command log; never raises
    on a command, like {!execute}. *)

val dpm : t -> Dpm.t
(** The session's underlying DPM (read-mostly: for status frames and
    checkpoint fingerprints). *)

val setup_evaluations : t -> int
(** Evaluations spent by the initial ADPM propagation (0 in conventional
    mode) — the [setup_evaluations] a closing [Run_finished] reports. *)

val attributed_evaluations : t -> int
(** N_T already attributed to emitted [Op_submitted] events, i.e.
    [Dpm.eval_count] as of the last applied operation. The checkpoint
    writer records this (not the live [eval_count]) as [Run_finished]'s
    evaluation total so a replay reproduces it exactly; decision-time
    evaluations after the final apply are deliberately excluded. *)
