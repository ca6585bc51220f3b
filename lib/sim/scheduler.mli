(** A virtual-clock discrete-event loop.

    The scheduler owns a {!Event_queue} and an integer clock. [run] pops
    the earliest pending event, advances the clock to its timestamp (time
    never moves backwards: [schedule] only places events at
    [now + delay], [delay >= 0]), and invokes the handler, which may
    schedule further events; it returns when the queue is empty or the
    simulation is halted.

    Determinism: the clock and the pop order are pure functions of the
    schedule-call sequence (see {!Event_queue}), so two runs issuing the
    same calls see the same interleaving. *)

type 'a t

val create : unit -> 'a t

val now : 'a t -> int
(** Current virtual time (ticks). Starts at [0]. *)

val schedule : 'a t -> delay:int -> 'a -> unit
(** Enqueue an event [delay] ticks from [now]. Events scheduled for the
    same instant fire in schedule order. No-op after {!halt}.
    @raise Invalid_argument on a negative delay. *)

val halt : 'a t -> unit
(** Stop the simulation: drop every pending event; [run] returns after
    the current handler does. The clock keeps its final value. *)

val run : 'a t -> ('a -> unit) -> unit
(** Process events until exhaustion or {!halt}. *)
