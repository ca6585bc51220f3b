(** Elaboration of a DDDL description into a runnable TeamSim scenario.

    Performs the semantic checks the parser cannot (unknown property and
    constraint references, duplicate declarations, models targeting
    non-properties, monotonicity declarations naming properties outside the
    constraint, requirements outside their property's domain) and produces
    a {!Adpm_teamsim.Scenario.t} whose build function constructs a fresh
    network, problem hierarchy and DPM per run. *)

exception Error of string

val build : Ast.scenario_decl -> mode:Adpm_core.Dpm.mode -> Adpm_core.Dpm.t
(** A fresh DPM for a declaration elaboration accepted: what its
    scenario's [sc_build] does. *)

val scenario : Ast.scenario_decl -> Adpm_teamsim.Scenario.t
(** Check a parsed declaration and elaborate it: what {!load_string}
    does after parsing.
    @raise Error on semantic errors. *)

val with_requirements :
  (string * float) list -> Ast.scenario_decl -> Ast.scenario_decl
(** [with_requirements values decl] is [decl] with the value of each
    named requirement replaced, checked as {!scenario} checks it. This is
    how a built-in scenario's variants derive from its one source.
    @raise Error when a name is not a declared requirement of [decl], or
    the result fails the semantic checks (a value outside its property's
    domain). *)

val load_string : string -> Adpm_teamsim.Scenario.t
(** Parse then elaborate. Lexer and parser failures are re-raised as
    {!Error} with a caret-style message carrying the line, column and the
    offending source line, so every failure mode of a DDDL source string
    surfaces through one exception.
    @raise Error on lexical, syntactic or semantic errors. *)
