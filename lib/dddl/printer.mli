(** Pretty-printer for DDDL.

    Produces text that the parser reads back to a structurally identical
    AST (the round-trip property tested in the suite). Useful for exporting
    programmatically built scenarios — e.g. generated ones — as editable
    DDDL sources. *)

val expr : Adpm_expr.Expr.t -> string
(** Infix rendering with minimal parentheses, parseable by
    {!Parser.parse_expr}. *)

val roundtrip : Ast.scenario_decl -> (string, string) result
(** Render a complete scenario description, re-parse it, and compare:
    [Ok src] when [parse src = m], [Error msg] describing the divergence
    otherwise. *)

val checked : Ast.scenario_decl -> string
(** The rendering of {!roundtrip}, once it has round-tripped.
    @raise Elaborate.Error when the emitted text does not round-trip. *)
