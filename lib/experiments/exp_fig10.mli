(** Figure 10: robustness to specification tightness.

    Sweeps the tightness of the receiver's gain requirement and records the
    number of executed operations per mode. Paper claim: the variation with
    tightness appears larger when using the conventional approach — ADPM is
    more robust to problem hardness. *)

type point = {
  req_gain : float;
  conv_mean_ops : float;
  conv_sd_ops : float;
  adpm_mean_ops : float;
  adpm_sd_ops : float;
}

type result = {
  points : point list;
  conv_spread : float;
      (** max - min of conventional mean ops across the sweep *)
  adpm_spread : float;
}

val run : ?seeds:int -> ?sweep:float list -> ?jobs:int -> unit -> result
(** Defaults: 10 seeds per point, {!Adpm_scenarios.Receiver.gain_sweep}.
    [jobs] forwards to {!Adpm_teamsim.Engine.run_many}. *)

val render : result -> string
