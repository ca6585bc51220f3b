(** One daemon-resident interactive session.

    Wraps {!Adpm_teamsim.Interactive} with the bookkeeping the daemon
    needs: a per-session trace collector (every session records its own
    PR 1 event stream), a command log, and checkpoint/resume.

    A checkpoint artifact is a JSONL file: line 1 is a header object
    ([teamsimd_checkpoint], scenario/mode/seed/designer, the command log,
    and a state fingerprint), followed by the session's stamped trace
    events with a synthetic closing [Run_finished] appended. The event
    half is a complete, self-contained replay input for the stock
    {!Adpm_teamsim.Replay} driver; the header half is what [resume] uses
    to rebuild the {e live} session (designer-model RNG and memory
    included) by re-issuing the command log against a fresh engine. *)

open Adpm_core
open Adpm_teamsim
module Json = Adpm_trace.Json

type t

val create :
  resolve:(string -> (Scenario.t, string) result) ->
  id:string ->
  scenario:string ->
  mode:Dpm.mode ->
  seed:int ->
  designer:string ->
  (t, string) result
(** [Error] for an unresolvable scenario or unknown designer; never
    raises. [resolve] is the daemon's injected scenario resolver
    (typically {!Adpm_scenarios.Registry.resolve_result}). *)

val reference : t -> string
(** The scenario reference the session was opened with. *)

val scenario : t -> Scenario.t
(** The scenario [reference] resolved to. *)

val interactive : t -> Interactive.t

val command_count : t -> int
(** How many lines were ever passed to {!exec}. *)

val exec : t -> string -> (string, string) result
(** Run one command line (logged for resume). Exceptions other than the
    [Invalid_argument]s {!Interactive.execute} absorbs do propagate —
    the daemon treats them as a wedged session and tears it down. *)

val replay : t -> string -> unit
(** {!exec} without the reply: log the line and make its state effects
    through {!Interactive.replay}. Raises as {!exec} does. *)

val prompt : t -> string
val finished : t -> bool

val fingerprint : t -> string
(** Compact state digest (op/eval/spin counters, solved flag, sorted
    violation ids) used to verify resume fidelity. *)

val fingerprint_of_interactive : Interactive.t -> string
(** The same digest computed for a bare {!Interactive} session, so
    harnesses can compare a daemon session against a local reference run
    without a [Session.t] in hand. *)

val status_fields : t -> (string * Json.t) list
(** The [status] response body. *)

val checkpoint : t -> path:string -> (int, string) result
(** Write the replay artifact; [Ok events_written] or [Error io_message].
    The live session is untouched and can be checkpointed again later. *)

val header_fields : marker:string -> t -> (string * Json.t) list
(** The checkpoint/journal header object's fields: [marker] (a format
    tag, ["teamsimd_checkpoint"] or ["teamsimd_journal"]),
    scenario/mode/seed/designer, the full command log, and the current
    state fingerprint. Shared by {!checkpoint} and the daemon's
    write-ahead journal. *)

type resume_error =
  | Rs_io of string  (** file unreadable *)
  | Rs_corrupt of string  (** bad header/events, or trace fails replay *)
  | Rs_mismatch of string  (** rebuilt state contradicts the fingerprint *)

(** Parsed header (checkpoint or journal — same shape). *)
type header = {
  h_scenario : string;
  h_mode : Dpm.mode;
  h_seed : int;
  h_designer : string;
  h_commands : string list;
  h_fingerprint : string;
}

val header_of_json : marker:string -> Json.t -> (header, string) result
(** Parse a header object, requiring the given [marker] key. *)

val rebuild :
  resolve:(string -> (Scenario.t, string) result) ->
  id:string ->
  header ->
  (t * int, resume_error) result
(** Rebuild a live session from a parsed header alone: create a fresh
    engine, {!replay} the command log, and gate on the recorded
    fingerprint. This is the shared replay path under both {!resume}
    (checkpoint artifacts, which additionally validate their recorded
    trace) and the daemon's journal recovery. *)

val resume :
  resolve:(string -> (Scenario.t, string) result) ->
  id:string ->
  path:string ->
  (t * int, resume_error) result
(** Rebuild a live session from a checkpoint artifact: validate the
    recorded trace via {!Adpm_teamsim.Replay}, re-issue the command log,
    and check the resulting fingerprint. [Ok (session, commands_replayed)]. *)
