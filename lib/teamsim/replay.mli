(** Deterministic replay of recorded traces.

    A recorded trace pins down a run completely: the scenario builds the
    same initial state, and the [Op_submitted] events carry every design
    operation in execution order as plain data. Replay re-executes that
    operation sequence against a fresh {!Adpm_core.Dpm.t} — no simulated
    designers, no RNG — and checks that the design process converges to
    the recorded outcome: per-operation results ([Op_executed]), final
    constraint statuses, violation sets, and the N_O / N_T / spin totals
    ([Run_finished]).

    This is both a determinism audit for the simulator and a portable
    regression format: a trace captured on one machine must replay
    cleanly on any other. *)

open Adpm_core
open Adpm_trace

type mismatch = {
  mm_label : string;  (** what was compared, e.g. ["op 12 evaluations"] *)
  mm_expected : string;  (** recorded value *)
  mm_actual : string;  (** replayed value *)
}

type report = {
  rp_scenario : string;
  rp_mode : Dpm.mode;
  rp_seed : int;  (** recorded seed (informational; replay uses no RNG) *)
  rp_operations : int;  (** operations re-executed *)
  rp_events : int;  (** trace events consumed *)
  rp_finished : bool;  (** the trace contained a [Run_finished] event *)
  rp_mismatches : mismatch list;
}

val converged : report -> bool
(** Complete trace and zero mismatches. *)

exception Replay_error of string
(** The trace cannot be replayed at all: no [Run_started] event, it
    names a scenario / mode / engine unknown to this binary, or it
    submits an operation (or a shift) the DPM rejects as malformed. *)

val run : resolve:(string -> Scenario.t) -> Event.stamped list -> report
(** Replay a single-run trace, resolving the recorded scenario name
    through [resolve] — typically {!Adpm_scenarios.Registry.resolve} (so
    recorded ["gen:<spec>"] names rebuild the identical generated network
    on any process) or {!Scenario.resolver} over a fixture list. An
    [Invalid_argument] from [resolve] becomes a {!Replay_error}.
    A header whose engine is ["full"] (a trace of the retired
    from-scratch engine) makes every propagation restart from scratch,
    which reproduces that engine's evaluation counts.
    Assumes the engine's default revision budget; a run recorded with a
    custom [max_revisions] may diverge.
    @raise Replay_error when the trace header is unusable or an event
    cannot be applied. *)

val render : report -> string
(** Human-readable verdict, one line per mismatch. *)
