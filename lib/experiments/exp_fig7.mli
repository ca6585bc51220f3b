(** Figure 7: per-operation profiles on the simplified design case.

    (a) Number of constraint violations found upon each executed operation,
    conventional (solid) vs ADPM (dotted). Expected shape: with ADPM fewer
    violations are found, they start later and stop earlier, and fewer
    operations complete the design.

    (b) Number of constraint evaluations per executed operation. Expected
    shape: ADPM pays more evaluations per operation, but the total (area
    under the curve) carries a smaller penalty because the run is much
    shorter. *)

type series = { ops : int array; violations : float array; evaluations : float array }

type result = {
  conventional : series;
  adpm : series;
  conv_total_viol : float;
  adpm_total_viol : float;
  conv_total_evals : float;
  adpm_total_evals : float;
  conv_last_violation_op : int;  (** last operation that found a violation *)
  adpm_last_violation_op : int;
  conv_mean_ops : float;  (** mean run length *)
  adpm_mean_ops : float;
}

val run : ?seeds:int -> ?jobs:int -> unit -> result
(** Averages profiles over [seeds] (default 20) runs per mode. [jobs]
    forwards to {!Adpm_teamsim.Engine.run_many}. *)

val render : result -> string
