(** JSONL serialisation of stamped trace events: one JSON object per line,
    tagged with a ["type"] field. Encoding and decoding round-trip exactly
    (floats via [%.17g]), which is what makes a trace file usable as a
    deterministic-replay input. *)

val to_line : Event.stamped -> string
(** Single line, no trailing newline. *)

val of_line : string -> (Event.stamped, string) result

val of_lines : first:int -> string list -> (Event.stamped list, string) result
(** Decode trace lines, the first of which is line [first] of its file.
    Blank lines are skipped but counted, so the first malformed line
    aborts with its physical line number. *)

val read_file : string -> (Event.stamped list, string) result
(** {!of_lines} over a whole JSONL trace file. *)
