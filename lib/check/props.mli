(** The standard temporal-property suite for TeamSim traces — five
    collaboration guarantees, expressed over the discrete-event engine's
    event stream:

    - every pushed violation is eventually delivered to its owner,
      resolved, or excusably lost (dropped by the fault injector, or the
      owner was down for the delivery window);
    - no live designer starves: the gap between a designer's consecutive
      turns is bounded by a small multiple of the roster size;
    - a crashed designer always recovers: the restart fires when it is
      due, and the restarted designer rejoins the turn rotation;
    - the fault injector is honest: a notification it dropped is never
      also delivered;
    - an idle halt waits for the mail: a run that ends unsolved right
      after a round in which nobody acted leaves no pushed notification
      neither delivered nor dropped.

    Each property is engineered to hold on {e every} fault-free or
    faulty run of the engine — a failure indicates a real scheduling or
    bookkeeping bug, not an artefact of aggressive fault plans — which is
    what makes the suite usable as a fuzzing oracle ({!Fuzz}). *)

module Fault = Adpm_fault.Fault

val notified_or_resolved : horizon:int -> Prop.t
(** [horizon] is the worst-case teammate transit time
    ({!Adpm_sim.Model.max_delivery_delay}); obligations whose delivery
    window extends past the end of the run, or whose recipient was
    crashed during it, are excused. An obligation whose operation has no
    [Op_completed] is reported, never excused. *)

val no_starvation : ?slack:int -> unit -> Prop.t
(** Bound: [2 * roster + slack] other-designer turns between two turns
    of the same live designer (the engine's round-shuffle worst case is
    [2 * (roster - 1)]). [slack] defaults to [4]. *)

val crash_rejoins : ?crashes:Fault.crash list -> ?slack:int -> unit -> Prop.t
(** With the fault [crashes] plan known, additionally checks each
    restart fires when due (crash time + recovery); without it, only the
    rejoin half (a restarted designer takes a turn within
    [2 * roster + slack] other turns) is enforceable. *)

val no_deliver_after_drop : Prop.t

val no_idle_halt_in_flight : horizon:int -> Prop.t
(** Applies only when {!Prop.ended_idle}; then every [Notification_pushed]
    must have been delivered or dropped, unless its recipient executed the
    operation or was crashed within [horizon] ticks of its completion. *)

val suite : ?horizon:int -> ?crashes:Fault.crash list -> unit -> Prop.t list
(** All five. [horizon] defaults to a conservative [64] ticks; pass the
    run's actual [latency + jitter] for a tight check. *)
