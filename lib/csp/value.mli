(** Property values.

    The paper allows property values to be "numbers, strings, tuples, or
    complex descriptions" (Section 2.1). Constraint arithmetic only involves
    numbers; symbolic values carry design metadata such as abstraction
    levels. *)

type t = Num of float | Sym of string

val to_string : t -> string
