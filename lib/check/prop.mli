(** Temporal properties over trace event streams.

    A property is a named description that can be instantiated into a
    fresh stateful checker; {!check} runs a whole suite over one recorded
    trace in a single pass. Properties are built from a small combinator
    vocabulary — {!never}, {!eventually}, {!leads_to}, {!after_never},
    {!bounded_count} — each of which reports the {e witnessing window}
    (first and last sequence numbers involved) when it fails.

    The evaluator maintains ambient {!facts} about the run (virtual
    makespan, operation completion times, crash windows, the designer
    roster) that end-of-trace policies consult to separate genuine
    violations from obligations the run legitimately left open (a
    notification still in flight when the project finished, a recipient
    that was crashed for the whole delivery window).

    Streams that visibly lost events are {b refused}, not vacuously
    passed: one that lost its head or lines in the middle has sequence
    numbers that no longer start at zero or are no longer dense, and
    every property then reports {!Truncated} instead of a verdict. A
    stream that lost only its tail is still dense, so {!check} cannot see
    the loss and judges the prefix (hand-built streams, as in the
    property tests, need not end in [Run_finished]). Refusing a cut
    trace file is the caller's rule: [teamsim check] reports every
    property [Truncated] when the file is empty or its last event is not
    [Run_finished]. *)

open Adpm_trace

(** {1 Verdicts} *)

type fail = {
  f_reason : string;  (** human-readable explanation *)
  f_from_seq : int;  (** sequence number opening the witnessing window *)
  f_to_seq : int;  (** sequence number closing it *)
}

type verdict =
  | Pass
  | Fail of fail
  | Truncated of { dropped : int }
      (** the trace is incomplete ([dropped] events missing — at least 1
          even when the exact count is unknown); no verdict is sound *)

val verdict_to_string : verdict -> string
(** ["pass"], ["FAIL: <reason> [seq A..B]"], or
    ["truncated (<n> events dropped)"]. *)

(** {1 Ambient facts}

    Accumulated by the evaluator during the same single pass; step
    functions and end-of-trace policies may consult them. *)

type facts

val makespan : facts -> int
(** Largest virtual time stamped on any event so far. *)

val completion_of : facts -> int -> int option
(** Virtual completion time of an operation index ([Op_completed]). *)

val actor_of : facts -> int -> string option
(** Designer who executed an operation index ([Op_executed]). *)

val roster_size : facts -> int
(** Distinct designers seen acting (turns, executions, crashes) so far. *)

val crashed_during : facts -> string -> int -> int -> bool
(** [crashed_during f d t1 t2]: did designer [d] have a crash window
    (crash to restart, or crash to end-of-trace) intersecting
    [[t1, t2]]? *)

val ended_idle : facts -> bool
(** Did the run end unsolved ([Run_finished] with [completed = false])
    right after an idle round — every designer seen so far took a turn
    since the last [Op_submitted], or is down at the end? A run that ran
    out of its operation budget ends right after an [Op_completed] and
    did not end idle. *)

(** {1 Properties} *)

type instance
(** Fresh mutable checker state for one run over one trace. *)

type t = {
  p_name : string;
  p_doc : string;  (** one-line statement of the property *)
  p_instantiate : unit -> instance;
}

val never :
  name:string -> doc:string -> (Event.stamped -> string option) -> t
(** Fails on the first event the predicate condemns (returning
    [Some reason]). *)

val eventually :
  name:string ->
  doc:string ->
  ?unless:(facts -> bool) ->
  (Event.stamped -> bool) ->
  t
(** Fails at end of trace when no event satisfied the predicate, unless
    the [unless] policy excuses the whole trace. *)

val leads_to :
  name:string ->
  doc:string ->
  trigger:(facts -> Event.stamped -> 'ob list) ->
  key:('ob -> string) ->
  describe:('ob -> string) ->
  discharge:(facts -> Event.stamped -> ('ob -> bool) option) ->
  ?excuse:(facts -> Event.stamped -> ('ob -> bool) option) ->
  ?at_end:(facts -> 'ob -> bool) ->
  unit ->
  t
(** The workhorse: [trigger] opens obligations (deduplicated by [key]),
    [discharge] closes the ones its returned predicate selects, [excuse]
    closes them without counting as fulfilment (e.g. the fault injector
    dropped the message). Obligations still open at end of trace fail —
    with the triggering event's sequence number opening the witness
    window — unless [at_end] (default: never) excuses them. *)

val after_never :
  name:string ->
  doc:string ->
  mark:(Event.stamped -> string list) ->
  bad:(Event.stamped -> string list) ->
  describe:(string -> string) ->
  t
(** Safety: once a key is [mark]ed, any later event listing it among its
    [bad] keys is a violation (window: mark to offending event). *)

val bounded_count :
  name:string ->
  doc:string ->
  arm:(facts -> Event.stamped -> string list) ->
  tick:(facts -> Event.stamped -> (string -> bool) option) ->
  disarm:(facts -> Event.stamped -> (string -> bool) option) ->
  bound:(facts -> int) ->
  describe:(string -> int -> string) ->
  t
(** Fairness: [arm] starts (or resets) a counter per key, [tick]
    increments the counters its predicate selects, and exceeding
    [bound facts] fails ([describe key count] renders the reason).
    [disarm] drops counters (a crashed designer is not starving). Events
    are applied disarm-first, then tick, then arm, so a key's own
    arrival both resets it and never self-ticks. *)

val conj : name:string -> doc:string -> t list -> t
(** All sub-properties under one name; the first failure wins. *)

(** {1 Checking} *)

type result = { c_prop : string; c_doc : string; c_verdict : verdict }

val truncation : Event.stamped list -> int option
(** [Some n] when the stream is visibly incomplete: the first sequence
    number is not [0] (a missing prefix), or the sequence numbers are
    not dense (a gap). [n] is the best lower bound on the number of
    missing events. *)

val check : t list -> Event.stamped list -> result list
(** Evaluate every property over the trace in one pass, in order.
    Refuses a stream {!truncation} flags: every verdict is then
    [Truncated]. An empty stream or a cut tail is not flagged. *)

val failed : result list -> result list
(** The results that are not [Pass]. *)

val render : result list -> string
(** One line per property. *)
