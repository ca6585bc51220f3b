(** Attribution of traced simulation wall time to layers.

    The benchmark's trace sink stamps each event on arrival; {!event}
    charges the gap since the previous stamp to one layer by the rules
    documented in [attrib.ml] (and in [README.md]). Because every gap of
    a run is charged exactly once, the layer totals sum to the traced wall
    time. *)

type kind =
  | Turn_started
  | Designer_decision
  | Op_submitted
  | Op_executed
  | Propagation_started
  | Propagation_finished
  | Status_changed  (** [Constraint_status_changed] *)
  | Notification_pushed
  | Other  (** every other event *)

type layer =
  | Engine_setup
  | Designer
  | Propagate
  | Dpm_apply
  | Dpm_notify
  | Engine_dispatch

val layers : layer list
val layer_name : layer -> string

val classify :
  seen_turn:bool -> in_propagation:bool -> opened:kind -> closed:kind -> layer
(** The rule table for one gap: [opened] is the event that began it,
    [closed] the one that ended it. *)

type t
(** Totals accumulated over any number of runs. *)

val create : unit -> t

val start : t -> int -> unit
(** A run began (the [Engine.run] call) at the given nanosecond stamp. *)

val event : t -> kind -> int -> unit
(** An event arrived at the given stamp. *)

val stop : t -> int -> unit
(** The run returned at the given stamp: the final gap is charged. *)

val ns : t -> layer -> int
val spans : t -> layer -> int
(** Gaps charged to the layer. *)

val wall_ns : t -> int
(** Sum of the runs' [start]..[stop] intervals. *)

val total_ns : t -> int
(** Sum over all layers; equals {!wall_ns}. *)

val runs : t -> int
