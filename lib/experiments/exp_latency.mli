(** Notification-latency sweep (discrete-event extension).

    The paper's comparison runs with instant notification: every designer
    learns an operation's outcome before anyone acts again. The
    discrete-event engine makes the delivery delay a parameter, so this
    experiment asks how the ADPM advantage depends on it: for each latency
    in the sweep, run both modes over the same seed set and compare mean
    operation counts and completion rates.

    Expected shape: the conventional process already discovers violations
    late (only at verification time), so extra notification lag costs it
    comparatively little, while it delays the conflict-resolution feedback
    loop; the conventional-to-ADPM operation ratio should grow — or at
    least hold — as the latency increases. *)

open Adpm_teamsim

type point = {
  p_latency : int;
  p_conv : Report.aggregate;
  p_adpm : Report.aggregate;
}

type result = { scenario : string; seeds : int; points : point list }

type verdicts = {
  ops_ratio_by_latency : (int * float) list;
      (** (latency, conventional mean ops / ADPM mean ops), sweep order *)
  ratio_at_zero : float;
  ratio_at_max : float;
  advantage_grows : bool;  (** ratio at the largest latency >= at zero *)
}

val run : ?seeds:int -> ?jobs:int -> unit -> result
(** Default 30 seeds per cell on the sensor scenario, at latencies 0, 1,
    2, 4 and 8 ticks. [jobs] forwards to {!Adpm_teamsim.Engine.run_many}. *)

val verdicts : result -> verdicts
val render : result -> string
