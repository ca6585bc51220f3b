(** Pretty-printer for DDDL.

    Produces text that the parser reads back to a structurally identical
    AST (the round-trip property tested in the suite). Useful for exporting
    programmatically built scenarios — e.g. generated ones — as editable
    DDDL sources. *)

val expr : Adpm_expr.Expr.t -> string
(** Infix rendering with minimal parentheses, parseable by
    {!Parser.parse_expr}. *)

val scenario : Ast.scenario_decl -> string
(** A complete scenario description, parseable by {!Parser.parse}. *)

val roundtrip : Ast.scenario_decl -> (string, string) result
(** Render, re-parse, and compare: [Ok src] when [parse (scenario m) = m],
    [Error msg] describing the divergence otherwise. *)

val checked : Ast.scenario_decl -> string
(** Like {!scenario} but verifies the round-trip first.
    @raise Elaborate.Error when the emitted text does not round-trip. *)
