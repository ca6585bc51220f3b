(** teamsimd: the persistent session daemon.

    Keeps elaborated scenarios resident and multiplexes many concurrent
    interactive sessions over one listening socket speaking the {!Wire}
    JSONL protocol.

    {b Concurrency.} A single-threaded, non-blocking [Unix.select] event
    loop. This is a deliberate choice against per-session domains: it
    never calls [Domain.spawn], so a process hosting a daemon may still
    [Unix.fork] (the OCaml 5 runtime forbids forking once a domain has
    been spawned), and per-op work (one propagation) is far too small to amortize
    domain handoff. Isolation comes from exception boundaries instead of
    address spaces: a throwing session is torn down and answered with a
    [session_failed] frame; the accept loop never stalls. With a journal
    directory, journal fsyncs run on a {!Sync_pool} of system threads;
    the replies of one loop iteration leave once every fsync submitted
    while handling them is done.

    {b Driving it.} [run] blocks until a [shutdown] frame arrives.
    [step] runs one bounded iteration, so tests and benches can host a
    daemon and its clients in a single thread. [handle] exposes the
    request dispatcher directly for protocol-level tests.

    {b Fixed bounds.} A frame longer than {!Wire.default_max_frame}
    bytes is answered with one [oversize] error frame and its
    connection dropped; the reply cache keeps each client's 64 newest
    replies. *)

open Adpm_teamsim
module Json = Adpm_trace.Json

type addr =
  | Unix_path of string
  | Tcp of string * int  (** numeric host address, e.g. ["127.0.0.1"] *)

type config = {
  dc_addr : addr;
  dc_scenarios : Scenario.t list;
      (** resident scenarios advertised in the [hello] listing *)
  dc_resolve : string -> (Scenario.t, string) result;
      (** the injected scenario resolver used by [open] and [resume];
          an [Error] answers the request with a command-level
          [unknown_scenario] frame — resolution failures never tear down
          anything *)
  dc_max_sessions : int;
  dc_checkpoint_dir : string;  (** default directory for [checkpoint] files *)
  dc_journal_dir : string option;
      (** when set, every accepted [open]/[exec]/[resume] is written to a
          per-session write-ahead journal in this directory, written
          before execution and fsync'd before any later reply leaves,
          and [create] rebuilds every journaled session found there —
          see {!Journal} *)
  dc_max_conns : int;
      (** admission control: connections past this bound are answered
          with a single [overloaded] error frame and closed *)
  dc_max_write_buf : int;
      (** per-connection buffered-output bound in bytes; a peer that
          stops reading past it is disconnected (slow-client defense) *)
  dc_max_ops : int;
      (** per-session [exec] budget (0 = unlimited); past it every exec
          is refused with [overloaded] *)
  dc_sndbuf : int option;
      (** SO_SNDBUF for accepted connections (test seam for the
          slow-client path) *)
}

val default_config : addr:addr -> scenarios:Scenario.t list -> config
(** 256 sessions, checkpoints in ["."], no journaling, 64 connections,
    4 MiB write buffers, unlimited ops, and a [dc_resolve] that looks
    names up in [scenarios] only. The CLI overrides [dc_resolve]
    with the full registry (plain names plus [gen:<spec>] and
    [file:<path>] references). *)

type t

val create : config -> t
(** Bind and listen (unlinking a stale unix-socket path first). With
    [dc_journal_dir] set, also: lock the journal directory (pid
    lockfile; stale locks from a killed daemon are broken), scan it, and
    rebuild every recoverable session by replaying its journal —
    fingerprint-gated at the header and at every tail entry, with
    damaged journals quarantined ([*.corrupt]) and reported via
    {!warnings} rather than wedging startup. An intact journal is kept
    as it is; one with a damaged tail is rewritten from the rebuilt
    session. Every kept journal and the directory are fsync'd in one
    concurrent batch before [create] returns (a session whose journal
    cannot be is not served). Replies for journaled (client, id)
    requests are re-cached so a client resend from before the crash is
    answered without double-execution.
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Failure when another live daemon holds the journal dir. *)

val handle : t -> Json.t -> Json.t
(** Dispatch one parsed request frame to its response frame. Total: any
    exception becomes an error frame ([session_failed] with teardown for
    a throwing session's [exec], [internal] otherwise). Returns once the
    journal writes the request made are durable; if one cannot be made
    durable, the session is closed and the reply is an [io] frame. A
    frame carrying both a ["client"] token and an ["id"] is idempotent:
    a duplicate (client, id) pair is answered from the bounded reply
    cache instead of re-executed. *)

val handle_line : t -> string -> Json.t
(** [handle] after parsing; unparseable input yields a [parse] error
    frame. *)

val step : ?timeout:float -> t -> bool
(** One event-loop iteration: select (up to [timeout], default 0.05 s),
    accept, read/dispatch, flush. Returns [false] once a [shutdown]
    request has been processed and all responses are flushed. *)

val run : t -> unit
(** [while step t do () done; stop t]. *)

val stop : t -> unit
(** Close every connection and the listener, unlink a unix-socket path,
    finish the journal fsyncs and join their threads, drop all sessions,
    release the journal lock. Journal {e files} are deliberately kept:
    they are the crash-recovery state a restarted daemon rebuilds
    from. *)

val session_count : t -> int

val find_session : t -> string -> Session.t option
(** Test/bench seam: direct access to a live session. *)

val recovered_sessions : t -> (string * int) list
(** Sessions rebuilt from journals at {!create}, as
    [(session_id, commands_replayed)], in recovery order. *)

val warnings : t -> string list
(** Human-readable reports of journal damage absorbed during recovery
    (quarantined files, dropped tail entries). *)
