(** The Notification Manager (NM).

    After each state transition the NM "alerts designers of
    constraint-related events, including violations and reductions of a
    property's feasible subspace", selecting the subset of the new state
    relevant to each designer (Section 2.2). Relevance is determined by
    subscriptions: a designer is subscribed to the properties of the
    problems they own, and receives an event when it touches a subscribed
    property.

    The NM works over dense ids. Subscriptions are compiled once into a
    {!routing} table (one prop-id bitset per designer), and {!diff} reads
    the DPM's before/after snapshots as arrays indexed by constraint id
    and prop id, so routing an operation's events costs O(events) bit
    tests beside one walk of each snapshot. *)

open Adpm_interval
open Adpm_csp

type event =
  | Violation_detected of int  (** constraint id *)
  | Violation_resolved of int
  | Feasible_reduced of string * Domain.t
      (** property and its new, smaller feasible subspace *)
  | Feasible_empty of string
      (** every value of the property was found infeasible *)

type notification = { n_recipient : string; n_events : event list }

(** {1 Compiled subscriptions} *)

type routing

val compile : prop_count:int -> (string * int list) list -> routing
(** [compile ~prop_count subs] compiles [(designer, subscribed prop ids)]
    pairs; the designer order given is the order notifications come out
    in. @raise Invalid_argument for a prop id outside [0, prop_count). *)

val designers : routing -> string list
(** In compiled order. *)

(** {1 The transition diff} *)

type delta = {
  d_newly_violated : int list;
      (** status entered [Violated], in [order] order *)
  d_resolved : int list;
      (** status left [Violated] for [Satisfied], in [order] order *)
  d_notifications : notification list;
}

val diff :
  routing ->
  Network.t ->
  order:int array ->
  args:int array array ->
  before:Constr.status array ->
  after:Constr.status array ->
  before_feasible:Domain.t array ->
  after_feasible:Domain.t array ->
  delta
(** One pass over the status snapshots (indexed by constraint id, walked
    in [order], a permutation of the ids) and one over the feasible
    snapshots (indexed by prop id; only props of the network with a
    numeric initial domain are considered, and feasible events name them
    by the network's names). [args.(cid)] are the prop ids a status event
    touches. The transitions themselves are {!status_changes}.

    Events: entering [Violated] emits [Violation_detected]; leaving
    [Violated] (for [Satisfied] {e or} [Consistent]) emits
    [Violation_resolved]; any other transition is silent. An emptied
    domain emits [Feasible_empty] (never also [Feasible_reduced]); a
    strictly smaller measure emits [Feasible_reduced]; widening emits
    nothing.

    Each notification carries its status events in the {e reverse} of
    [order], then its feasible events in prop-id order; recipients come in
    compiled order and only designers with at least one event get one. *)

val status_changes :
  before:Constr.status array ->
  after:Constr.status array ->
  (int * Constr.status * Constr.status) list
(** The transitions [(cid, before, after)] between two status snapshots,
    by constraint id. *)

(** {1 Rendering and tracing} *)

val event_label : event -> string
(** Compact machine-readable rendering (e.g. ["violation-detected:3"]);
    the payload format of [Notification_pushed] / [Notification_delivered]
    trace events. *)

val detected_violations : notification -> int list
(** Ids of the constraints a notification reports newly violated. *)

val trace_pushed :
  Adpm_trace.Tracer.t -> op_index:int -> notification list -> unit
(** Emit one [Notification_pushed] trace event per notification (no-op on
    an inactive tracer) — the NM's side of the observability contract.
    [op_index] is the history index of the operation that raised them,
    pairing each push with its later delivery / drop fate. *)
