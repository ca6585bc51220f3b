(** Problem scenarios.

    "Each simulation has an initial problem scenario given by a top-level
    problem formulation, an initial decomposition into subproblems, a set
    of designers, an assignment of subproblems to designers, and initial
    values for top-level requirements" (Section 3.1.2). A scenario is
    elaborated once per mode ({!compiled}); every run starts from its own
    copy of that state, so simulations are independent.

    Scenarios also declare the {e models} behind derived performance
    properties. Design operators are "typically implemented by CAD tools"
    (Section 2.1): when a simulated designer executes a synthesis operation
    on a design parameter, the tool recomputes every dependent performance
    property from its model, so performance values stay consistent with the
    parameters (the model-band constraints in the network express the
    tool's accuracy tolerance and tie the properties together for
    propagation). *)

open Adpm_expr
open Adpm_core

type cell
(** The scenario's {!Compiled} templates, one per mode, compiled on first
    use. *)

type t = {
  sc_name : string;
  sc_description : string;
  sc_models : (string * Expr.t) list;
      (** derived property -> model expression the synthesis tool
          evaluates; may reference other derived properties (resolved to a
          fixpoint) *)
  sc_build : mode:Dpm.mode -> Dpm.t;
      (** elaborate a fresh DPM; runs start from {!compiled} instead *)
  sc_compiled : cell;  (** filled by {!compiled}; shared by records copied with [with] *)
}

val make :
  name:string ->
  description:string ->
  ?models:(string * Expr.t) list ->
  (mode:Dpm.mode -> Dpm.t) ->
  t

val compiled : t -> mode:Dpm.mode -> Compiled.t
(** The scenario compiled for a mode: [sc_build] is called once per
    scenario value and mode — it must give the same scenario every time —
    and the template is then shared by every run, in any domain (the
    cell is filled under a mutex and the template is never written). A
    copy of the record with another [sc_build] or [sc_models] gets a
    fresh, uncached compilation.
    @raise whatever [sc_build] raises; nothing is cached then. *)

val find : t list -> string -> t option
(** Lookup by [sc_name]. *)

val resolver : t list -> string -> t
(** A fixed-list resolver, e.g. for {!Replay.run} over test fixtures.
    @raise Invalid_argument naming the known scenarios when absent. *)
