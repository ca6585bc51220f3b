(** The teamsimd wire layer: newline-framed JSONL request/response.

    One frame is one JSON object on one LF-terminated line (a trailing CR
    is tolerated). Frames longer than the reader's [max_frame] bound are
    rejected without buffering the rest of the line — the daemon answers
    with an [Oversize] error frame and drops the connection, so a hostile
    client cannot balloon daemon memory.

    Every request may carry an ["id"] field (string or number); the
    response echoes it verbatim, letting clients correlate frames.
    Responses are [{"ok":true, ...}] or
    [{"ok":false, "code":..., "error":...}].

    Frames never contain raw floats in [Num] unless finite (see the
    {!Adpm_trace.Json} float contract): optional measurements use the
    absent-field convention via [Json.finite_num]. *)

open Adpm_core
module Json = Adpm_trace.Json

val default_max_frame : int
(** 1 MiB. *)

(** Incremental frame splitter for a byte stream arriving in arbitrary
    chunks. *)
module Reader : sig
  type t

  val create : ?max_frame:int -> unit -> t
  val feed : t -> string -> unit

  val next : t -> [ `Frame of string | `Oversize | `Pending ]
  (** Next complete frame if one is buffered. Blank lines are skipped
      (keep-alives, not frames). [`Oversize] is sticky: once a
      connection exceeds [max_frame] it must be torn down (the reader
      discards further input). *)
end

type request =
  | Hello  (** server identification + scenario listing *)
  | Open of { scenario : string; mode : Dpm.mode; seed : int; designer : string }
  | Exec of { session : string; line : string }
      (** one {!Adpm_teamsim.Interactive} command line *)
  | Status of { session : string }
  | Checkpoint of { session : string; path : string option }
  | Resume of { path : string }
  | Close of { session : string }
  | Shutdown

val request_id : Json.t -> Json.t option
(** The ["id"] field when present and a string or number (other shapes
    are ignored rather than echoed). *)

val request_client : Json.t -> string option
(** The ["client"] envelope field: a caller-chosen stable client token.
    Requests carrying both a client token and an id are idempotent — the
    daemon answers a duplicate (client, id) pair from its bounded reply
    cache instead of re-executing, which is what makes a reconnecting
    client's resend-after-connection-loss safe for mutating ops. *)

val request_of_json : Json.t -> (request, string) result

val request_to_json : ?id:Json.t -> ?client:string -> request -> Json.t
(** [id] and [client] are envelope fields alongside the op payload. *)

type error_code =
  | Parse  (** frame is not valid JSON *)
  | Oversize  (** frame exceeded [max_frame]; connection is dropped *)
  | Bad_request  (** valid JSON, invalid request shape *)
  | Unknown_scenario
  | Unknown_session
  | Session_limit
  | Overloaded
      (** admission control: connection limit reached, or a session's op
          budget is exhausted — the request is rejected outright, never
          accepted-then-wedged *)
  | Command  (** the session rejected the command ([Error] from [execute]) *)
  | Session_failed  (** the session threw and was torn down *)
  | Io  (** checkpoint/resume file system failure *)
  | Bad_checkpoint  (** artifact unreadable, corrupt, or fails replay *)
  | Resume_mismatch  (** replayed state disagrees with the recorded fingerprint *)
  | Internal  (** unexpected daemon-side exception *)

val ok_frame : ?id:Json.t -> (string * Json.t) list -> Json.t
val error_frame : ?id:Json.t -> code:error_code -> string -> Json.t

type response = {
  r_id : Json.t option;
  r_ok : bool;
  r_code : string option;
  r_error : string option;
  r_body : Json.t;  (** the whole frame, for op-specific fields *)
}

val response_of_json : Json.t -> (response, string) result
val response_of_line : string -> (response, string) result

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide (on Unix), so a dead peer surfaces as an
    EPIPE [Unix_error] from the write instead of killing the process.
    Called by {!Daemon.create} and {!Client.connect}. *)

val write_all : Unix.file_descr -> string -> unit
(** Partial-write-safe: loops until the whole string is flushed, waiting
    out EAGAIN/EWOULDBLOCK (with the select itself EINTR-proof) and
    retrying interrupted writes. A dead fd (EPIPE, ECONNRESET, ...)
    escapes as the underlying [Unix.Unix_error]. *)

val send_line : Unix.file_descr -> Json.t -> unit
(** [write_all] of one frame: the rendered JSON plus ['\n']. *)
