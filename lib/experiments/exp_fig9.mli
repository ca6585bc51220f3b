(** Figure 9: design-process performance and computational penalty.

    Over 60 simulations per (case, mode) cell, varying the random seed:

    (a) Average and standard deviation of the number of design operations
    required to complete each case. Paper claims: the conventional approach
    needs at least twice as many operations; the reduction is more
    significant for the (harder) receiver; ADPM's results are at least 3x
    less variable; and ADPM's spins average about 7% of conventional's.

    (b) Average number of constraint evaluations — total, and per executed
    operation. Paper claims: ADPM needs many more evaluations; the total
    penalty is smaller than the per-operation penalty; and the penalty is
    smaller for the harder case. *)

open Adpm_teamsim

type cell = Report.aggregate

type result = {
  sensor_conv : cell;
  sensor_adpm : cell;
  receiver_conv : cell;
  receiver_adpm : cell;
}

type verdicts = {
  ops_ratio_sensor : float;  (** conventional mean ops / ADPM mean ops *)
  ops_ratio_receiver : float;
  reduction_larger_for_receiver : bool;
  variability_ratio_sensor : float;  (** conventional sd / ADPM sd *)
  variability_ratio_receiver : float;
  spin_fraction : float;  (** ADPM mean spins / conventional mean spins *)
  eval_penalty_sensor : float;  (** ADPM mean evals / conventional *)
  eval_penalty_receiver : float;
  penalty_smaller_for_receiver : bool;
  per_op_penalty_sensor : float;
  per_op_penalty_receiver : float;
}

val run : ?seeds:int -> ?jobs:int -> unit -> result
(** Default 60 seeds per cell, as in the paper. [jobs] forwards to
    {!Adpm_teamsim.Engine.run_many} — results are identical for any
    value. *)

val verdicts : result -> verdicts
val render : result -> string
