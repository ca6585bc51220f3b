(** Figure 8: the design-process statistics window.

    One ADPM run of the receiver case, with the key statistics TeamSim
    displays dynamically: number of constraints, number of (known)
    violations, cumulative constraint evaluations, and cumulative design
    spins, as a function of the operation number. *)

type row = {
  op : int;
  designer : string;
  kind : string;
  violations : int;  (** known violations after the operation *)
  cumulative_evaluations : int;
  cumulative_spins : int;
}

type result = {
  constraints : int;
  properties : int;
  rows : row list;
  completed : bool;
}

val run : ?seed:int -> unit -> result
(** One ADPM run; default seed 1. *)

val render : result -> string
