(** Fault-injection sweep (robustness extension).

    The paper's processes assume a perfect Notification Manager: every
    operation outcome reaches every teammate. The fault layer makes that
    an experimental variable. For each notification drop rate in the
    sweep, run both modes over the same seed set and compare completion
    rates and operation counts; then run one designer-crash
    schedule (the scenario's first designer loses its believed-status
    table mid-run and rebuilds it from later deliveries).

    Expected shape: dropped notifications starve exactly the mechanism
    the ADPM advantage rides on — early violation awareness — so its
    completion rate should degrade as drops increase, but no faster than
    the conventional process, which already discovers violations late. *)

open Adpm_teamsim

type point = {
  p_drop : float;
  p_conv : Report.aggregate;
  p_adpm : Report.aggregate;
}

type crash_point = {
  c_plan : string;  (** the schedule, in {!Adpm_fault.Fault.crashes_to_string} form *)
  c_conv : Report.aggregate;
  c_adpm : Report.aggregate;
}

type result = {
  scenario : string;
  seeds : int;
  points : point list;
  crash : crash_point;
}

type verdicts = {
  completion_by_drop : (float * float * float) list;
      (** (drop rate, conventional completion, ADPM completion), sweep
          order *)
  adpm_degrades_slower : bool;
      (** ADPM's completion loss from the cleanest to the lossiest cell is
          no larger than the conventional process's *)
  crash_completion : float * float;
      (** (conventional, ADPM) completion under the crash schedule *)
}

val run : ?seeds:int -> ?jobs:int -> unit -> result
(** Default 30 seeds per cell on the sensor scenario, at drop rates 0,
    0.1, 0.25 and 0.5, plus the crash schedule. [jobs] forwards to
    {!Adpm_teamsim.Engine.run_many}. *)

val verdicts : result -> verdicts
val render : result -> string
