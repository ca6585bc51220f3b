(** Deterministic priority event queue for discrete-event simulation.

    Entries are ordered by virtual time; entries scheduled for the same
    time pop in insertion order (each push takes the next value of an
    internal sequence counter, and the heap orders by the pair
    [(time, sequence)]). Replays of the same push sequence therefore pop
    in exactly the same order — there is no iteration-order or hash
    nondeterminism to leak into a simulation. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:int -> 'a -> unit
(** Schedule a payload at an absolute virtual time.
    @raise Invalid_argument on a negative time. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest entry — smallest [(time, sequence)]
    pair — or [None] when empty. *)

val clear : 'a t -> unit
(** Drop every pending entry (the sequence counter keeps advancing, so
    later pushes still order after earlier ones). *)
