(** Problem scenarios.

    "Each simulation has an initial problem scenario given by a top-level
    problem formulation, an initial decomposition into subproblems, a set
    of designers, an assignment of subproblems to designers, and initial
    values for top-level requirements" (Section 3.1.2). A scenario is a
    factory: every run builds a fresh DPM so simulations are independent.

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

type analysis
(** The scenario's shared {!Influence} table, analysed on first use. *)

type t = {
  sc_name : string;
  sc_description : string;
  sc_models : (string * Expr.t) list;
      (** derived property -> model expression the synthesis tool
          evaluates; may reference other derived properties (resolved to a
          fixpoint) *)
  sc_build : mode:Dpm.mode -> Dpm.t;
  sc_analysis : analysis;
      (** filled by {!influence}; shared by records copied with [with] *)
}

val make :
  name:string ->
  description:string ->
  ?models:(string * Expr.t) list ->
  (mode:Dpm.mode -> Dpm.t) ->
  t

val influence : t -> Adpm_csp.Network.t -> Influence.t
(** The scenario's influence table for a network its [sc_build] just
    built. Analysed once per scenario value — [sc_build] must give every
    run a network of the same structure, initial ranges and declared
    monotonicity — and then shared by every run, in any domain: the cell
    is filled under a mutex and the table is immutable. A network the
    cached table does not {!Influence.fits} gets a fresh, uncached
    analysis. *)

val find : t list -> string -> t option
(** Lookup by [sc_name]. *)

val resolver : t list -> string -> t
(** A fixed-list resolver, e.g. for {!Replay.run} over test fixtures.
    @raise Invalid_argument naming the known scenarios when absent. *)
