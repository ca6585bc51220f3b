(** Synchronous teamsimd client, for the smoke tests, the load bench,
    and scripting. One request in flight at a time.

    Two modes:

    - {!connect}: the original plain client. Connects once; a lost
      connection surfaces as {!Closed}; responses are matched by arrival
      order (the daemon answers frames in order).
    - {!connect_persistent}: the reconnecting client. Carries a stable
      ["client"] token on every request, so each (client, id) pair names
      one idempotent logical request. On connection loss {!rpc}
      transparently redials (exponential backoff with seeded jitter,
      lib/parallel's retry shape), re-runs the [hello] handshake, and
      {e resends the same frame}: if the first copy executed before the
      link died, the daemon's reply cache answers the resend without
      executing it again, so the observed command log is byte-identical
      to an undisturbed run. *)

module Json = Adpm_trace.Json

type t

val connect : ?max_frame:int -> Unix.sockaddr -> t
(** Plain mode. @raise Unix.Unix_error when the daemon is not reachable. *)

val connect_persistent :
  ?max_frame:int ->
  ?retries:int ->
  ?backoff:float ->
  ?seed:int ->
  client:string ->
  Unix.sockaddr ->
  t
(** Reconnecting mode. Dials lazily on first {!rpc}. [retries] (default
    8) bounds consecutive failed attempts per operation; [backoff]
    (default 0.02 s) is the base delay, doubled per attempt and capped
    at 2 s, jittered by a factor in [0.5, 1.0) drawn from a {!Adpm_util.Rng}
    seeded with [seed] — per-client determinism, no thundering herd. *)

val fd : t -> Unix.file_descr
(** @raise Closed when a persistent client is between connections. *)

val close : t -> unit

val reconnects : t -> int
(** How many times a persistent client has redialed after its first
    successful connection. *)

val send : t -> Json.t -> unit
(** Write one raw frame (for hostile-input tests). *)

exception Timeout
exception Closed  (** the daemon closed the connection *)

val next_response : ?timeout:float -> ?pump:(unit -> unit) -> t -> Wire.response
(** Read the next response frame. [?pump] is called repeatedly while
    waiting, so a harness hosting the daemon in the same thread can pass
    [fun () -> ignore (Daemon.step ~timeout:0. d)]. *)

val rpc : ?timeout:float -> ?pump:(unit -> unit) -> t -> Wire.request -> Wire.response
(** Send with a fresh numeric ["id"] and await the response. Plain mode:
    first-frame semantics, {!Closed}/{!Timeout} propagate. Persistent
    mode: matches the response by id (skipping stale frames from before
    a reconnect), retries through connection loss as described above,
    and returns a connection-level no-id error frame (e.g. [overloaded])
    as the answer; [Failure] once retries are exhausted. *)

val body_str : Wire.response -> string -> string option
val body_int : Wire.response -> string -> int option
