(** A minimal JSON value type with a printer and a hand-rolled
    recursive-descent parser.

    Deliberately dependency-free: trace files must be writable and readable
    without any external JSON library (the container bakes in only the
    OCaml toolchain).

    {b Float contract.} The printer round-trips every finite float
    ([%.17g]). [Num nan] and [Num infinity] have no JSON representation
    and deliberately print as [null] — i.e. [parse (to_string (Num nan))]
    is [Ok Null], not [Ok (Num nan)]. Wire formats must therefore never
    put a possibly-non-finite float inside [Num]; leave the field out
    instead, so a missing measurement reads back as a missing field
    rather than silently becoming [Null].

    {b String contract.} Strings are raw UTF-8 byte sequences. The parser
    validates [\u] escapes strictly: exactly four hex digits, astral-plane
    code points as high+low surrogate pairs decoded to one 4-byte UTF-8
    code point, and lone or mismatched surrogates rejected as parse
    errors. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no insignificant whitespace). *)

val parse : string -> (t, string) result
(** Parse one complete JSON document; trailing garbage is an error. *)

(** {1 Accessors} — shallow, total; [None] on shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
(** Only for integral [Num]s. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
