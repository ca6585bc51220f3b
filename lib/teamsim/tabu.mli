(** The designer's design-history tabu set (Section 3.1.1): parameter
    values that led to violations, by dense prop id.

    Two values of one property are the same entry when they print alike
    with [%.9g] — the equivalence the set has always used, so a value a
    hair away from a tabu one (the same to nine digits) is tabu too, and
    [-0.] is not [0.]. {!mem} decides it without printing in the common
    cases: an identical bit pattern is tabu, and a value more than a
    relative 1e-7 away from every stored one is not (two values printing
    alike differ by less than 1e-8 relative). Only a near miss prints. *)

type t

val create : unit -> t
val add : t -> int -> float -> unit
val mem : t -> int -> float -> bool
