(** Pluggable trace destinations.

    A sink is a pair of closures, so instrumented layers depend only on
    this minimal interface. Sinks are single-writer: the tracer that owns a
    sink serialises all writes. *)

type t = { write : Event.stamped -> unit; close : unit -> unit }

val null : t
(** Discards everything. *)

(** Unbounded in-memory collector: keeps {e every} event, so a consumer
    that must see a complete stream (the temporal-property checker refuses
    truncated traces) never races a capacity guess. *)
module Collect : sig
  type buffer

  val contents : buffer -> Event.stamped list
  (** In write order. *)

  val length : buffer -> int
end

val collector : unit -> Collect.buffer * t
(** Convenience: a fresh collect buffer and its sink. *)

val jsonl_file : string -> t
(** One JSONL line per event in the file, opened (truncating) now;
    [close] closes it. *)
