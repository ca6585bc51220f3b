(** The MEMS-based wireless receiver front-end design case (Section 3.2).

    Mixed-signal circuitry (LNA + mixer) and a MEMS channel-selection filter
    designed concurrently, with constraints on channel bandwidth, system
    gain, input impedance, frequency-selection precision, and power
    consumption. The network holds 35 properties and 30 constraints, most
    of them non-linear — matching the statistics the paper reports, which
    makes this the "harder" of the two cases.

    The case is defined once, in DDDL ([source]), tool models (band
    centres) included; [with_req_gain] derives the Fig. 10 variants from
    it. *)

open Adpm_teamsim

val scenario : Scenario.t

val with_req_gain : float -> Scenario.t
(** [scenario] with the minimum end-to-end voltage gain requirement
    ([req-gain], 30 in [source]) set to the given value: the variant
    Fig. 10 sweeps, derived from [source] by
    {!Adpm_dddl.Elaborate.with_requirements}.
    @raise Adpm_dddl.Elaborate.Error outside [req-gain]'s domain
    [10, 4000]. *)

val gain_sweep : float list
(** The requirement values used by the Fig. 10 tightness sweep. *)

val source : string
(** The scenario in DDDL: its one definition, which [scenario] is
    elaborated from. *)
