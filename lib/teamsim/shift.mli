(** Requirement-shift schedules: the adaptability workload.

    A shift re-assigns one requirement property to a new value at a
    virtual time, modelling a customer or system lead moving the goalposts
    mid-project ("the power budget drops to 140 at tick 30"). The
    discrete-event engine applies each shift through {!Adpm_core.Dpm}, so
    in ADPM mode the new requirement propagates immediately while a
    conventional team only discovers it at its next verification.

    The concrete syntax is [PROP>=FLOOR@TICK], with [;] separating plan
    entries: ["p_budget>=140@30;gmin0>=9.5@60"]. The [>=] reads as "the
    requirement on PROP becomes FLOOR" — the stored value is the new
    assignment, whatever the underlying constraint's relation. *)

type t = {
  sh_prop : string;  (** the requirement property to re-assign *)
  sh_value : float;  (** its new value *)
  sh_at : int;  (** virtual time (scheduler ticks) the shift fires *)
}

type plan = t list

val none : plan

val plan_of_string : string -> (plan, string) result
(** Parse a [;]-separated schedule, sorted by tick (stable for ties).
    Empty fields are skipped, so a trailing [;] is harmless. *)

val plan_to_string : plan -> string
(** Inverse of {!plan_of_string} up to whitespace and field order at
    equal ticks. *)

val validate : plan -> (unit, string) result
(** Structural checks only (finite value, tick >= 0). Whether the
    property exists is checked by the engine against the built scenario. *)
