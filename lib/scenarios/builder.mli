(** Shared scenario-construction helpers.

    Scenarios assemble the same ingredients (Section 3.1.2): a network of
    properties and constraints, initial values for top-level requirements, a
    top-level problem, a decomposition into subproblems with owners, and
    design objects for the browsers. This module removes the boilerplate. *)

open Adpm_expr
open Adpm_csp
open Adpm_core

type problem_spec = {
  ps_name : string;
  ps_owner : string;
  ps_inputs : string list;
  ps_outputs : string list;
  ps_constraints : Constr.t list;
  ps_object : string option;
}

val assemble :
  mode:Dpm.mode ->
  net:Network.t ->
  objects:Design_object.t list ->
  top_name:string ->
  leader:string ->
  requirements:(string * float) list ->
  system_constraints:Constr.t list ->
  subproblems:problem_spec list ->
  Dpm.t
(** Bind each requirement property to its initial value, build the
    top-level problem (owner [leader], the requirements as {e inputs} so
    simulated designers cannot relax them, the system constraints as its
    T), register one leaf subproblem per spec, and return the DPM. *)

val continuous : Network.t -> string -> float -> float -> unit
(** Shorthand: add a continuous property. *)

val le : Network.t -> string -> Expr.t -> Expr.t -> Constr.t
val ge : Network.t -> string -> Expr.t -> Expr.t -> Constr.t
