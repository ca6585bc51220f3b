(** The Section 2.4 walkthrough: team-based design of a MEMS-based wireless
    receiver front-end (LNA + mixer and a MEMS filtering device).

    The constraint constants are chosen so that the published feasible
    windows of Fig. 2 fall out of propagation: once the device engineer sets
    the beam length to 13 um, the frequency-inductor window becomes
    (0.174255, 0.5) uH and the differential-pair-width window becomes
    (2.5, 3.698225) um. The differential pair width appears in exactly three
    constraints (power, input impedance, gain), giving beta = 3 as in
    Fig. 3; after the gain violation and the leader's impedance tightening
    to 40 Ohm it is connected to two violations (alpha = 2, Fig. 4), and a
    single re-sizing to 3.5 um clears both. *)

open Adpm_core
open Adpm_teamsim

val build : ?adjustable_requirements:bool -> unit -> mode:Dpm.mode -> Dpm.t
(** [adjustable_requirements] (default [false]) makes the requirement
    properties outputs of the leader's top-level problem so that scripted
    walkthroughs can tighten them mid-design; simulations keep them fixed
    inputs. When requirements are fixed, [min_zin] starts at its tightened
    value of 40 Ohm. *)

val scenario : Scenario.t

(** Property names used by the walkthrough script and tests. *)

val diff_pair_w : string
val freq_ind : string
val beam_length : string
val min_zin : string

val source : string
(** The scenario in DDDL — the canonical text artifact that [scenario] is
    elaborated from. *)
