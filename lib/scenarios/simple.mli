(** The simplified design case of Fig. 7.

    Two subsystems designed concurrently by two designers, each with two
    free design variables and two performance parameters tied to them by
    model bands, plus three cross-subsystem constraints (a power budget
    [pa + pb <= p_max] — the paper's introductory example constraint — a
    gain floor [ga + gb >= g_min], and a gain-balance coupling). Small
    enough that per-operation profiles (violations found, evaluations
    executed) are easy to read.

    The case is defined once, in DDDL ([source]): requirements
    [p_max = 19], [g_min = 14.5], and the band-centre tool models as
    [model] declarations. *)

open Adpm_teamsim

val scenario : Scenario.t

val source : string
(** The scenario in DDDL: its one definition, which [scenario] is
    elaborated from. *)
