(** Property values.

    The paper allows property values to be "numbers, strings, tuples, or
    complex descriptions" (Section 2.1). Constraint arithmetic only involves
    numbers; symbolic values carry design metadata such as abstraction
    levels. *)

type t = Num of float | Sym of string

val sym : t -> string option
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
