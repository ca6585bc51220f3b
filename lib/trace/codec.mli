(** JSONL serialisation of stamped trace events: one JSON object per line,
    tagged with a ["type"] field. Encoding and decoding round-trip exactly
    (floats via [%.17g]), which is what makes a trace file usable as a
    deterministic-replay input. *)

val to_line : Event.stamped -> string
(** Single line, no trailing newline. *)

val of_line : string -> (Event.stamped, string) result

val read_file : string -> (Event.stamped list, string) result
(** Decode a whole JSONL trace file; blank lines are skipped, the first
    malformed line aborts with its line number. *)
