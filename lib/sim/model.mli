(** Operation-duration and notification-delivery models.

    Virtual time is a dimensionless integer tick count. An operation
    started at time [t] completes at [t + duration]; the Notification
    Manager delivers its outcome to the acting designer instantly (the
    tool's own report) and to every teammate after a constant [latency]
    ticks. [latency = 0] is an instant broadcast: every designer has every
    outcome before its next turn. *)

type op_class = Synthesis | Verification | Decompose

type duration =
  | Uniform of int  (** every operation takes the same number of ticks *)
  | Per_kind of {
      dm_synthesis : int;
      dm_verification : int;
      dm_decompose : int;
    }  (** ticks per operation class *)

val unit_duration : duration
(** [Uniform 1]: virtual time counts executed operations. *)

val duration_for : duration -> op_class -> int

val validate_duration : duration -> (unit, string) result
(** Durations must be non-negative ([0] is allowed: the event queue's
    sequence tie-break keeps same-instant events deterministic). *)

val duration_to_string : duration -> string
(** ["uniform:N"] or ["per-kind:S,V,D"]; inverse of
    {!duration_of_string}. *)

val duration_of_string : string -> (duration, string) result

val delivery_delay : ?extra:int -> latency:int -> own:bool -> unit -> int
(** Ticks between an operation's completion and the delivery of its
    outcome to a given designer: [0] for the acting designer,
    [latency + extra] for teammates. [extra] (default [0]) carries the
    fault injector's per-delivery jitter; the acting designer's own
    feedback is the local tool report and is never jittered. *)

val max_delivery_delay : latency:int -> jitter:int -> int
(** Worst-case teammate transit time under a fault plan with the given
    jitter ceiling — the horizon after which the temporal-property checker
    may treat a still-undelivered notification as a violation rather than
    merely in flight. *)

val validate_latency : int -> (unit, string) result
