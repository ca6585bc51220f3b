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
    single re-sizing to 3.5 um clears both.

    The case is defined once, in DDDL ([source]); the walkthrough's
    adjustable-requirements variant is a transform of the parsed
    declaration, not a second definition. *)

open Adpm_teamsim

val source : string
(** The scenario in DDDL: the one definition of the case. [scenario] and
    [adjustable_requirements] both derive from it. *)

val scenario : Scenario.t
(** The simulation variant: requirements are fixed inputs of the leader's
    top-level problem, with [min_zin] at its tightened value of 40 Ohm. *)

val adjustable_requirements : Adpm_dddl.Ast.scenario_decl
(** The walkthrough variant of [source]: the top-level problem's inputs
    become its outputs, so a scripted leader can tighten the requirements
    mid-design, and [min_zin] starts at 25 Ohm. Build it with
    {!Adpm_dddl.Elaborate.build}. *)

(** Property names used by the walkthrough script and tests. *)

val diff_pair_w : string
val freq_ind : string
val beam_length : string
val min_zin : string
