(** The MEMS-based pressure sensing system design case (Section 3.2).

    A capacitive pressure sensor and a mixed-signal interface circuit are
    designed concurrently, with top-level constraints on sensing resolution,
    estimated yield, and achievable pressure range. The network holds 26
    properties and 21 constraints, most of them linear and monotonic —
    matching the statistics the paper reports for this case.

    The case is defined once, in DDDL ([source]): requirements resolution
    2.3 kPa, yield 78 %, range 180 kPa, and the tool models of the derived
    performance properties (band centres) as [model] declarations, which
    [scenario]'s [sc_models] carries. *)

open Adpm_teamsim

val scenario : Scenario.t

val source : string
(** The scenario in DDDL: its one definition, which [scenario] is
    elaborated from. *)
