(* Tests for Adpm_dddl: lexer, parser, elaboration, error reporting, and
   behavioural equivalence with the OCaml-built scenario. *)

open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_dddl

(* {2 Lexer} *)

let tokens src = List.map (fun t -> t.Token.token) (Lexer.tokenize src)

let test_lexer_basic () =
  Alcotest.(check bool) "keywords vs identifiers" true
    (tokens "scenario foo"
    = [ Token.KW_SCENARIO; Token.IDENT "foo"; Token.EOF ]);
  Alcotest.(check bool) "numbers" true
    (tokens "1 2.5 3e2 4.5e-1"
    = [ Token.NUMBER 1.; Token.NUMBER 2.5; Token.NUMBER 300.;
        Token.NUMBER 0.45; Token.EOF ]);
  Alcotest.(check bool) "operators" true
    (tokens "<= >= = + - * / ^"
    = [ Token.LE; Token.GE; Token.EQUAL; Token.PLUS; Token.MINUS; Token.STAR;
        Token.SLASH; Token.CARET; Token.EOF ])

let test_lexer_comments () =
  Alcotest.(check bool) "line comment" true
    (tokens "a // comment\n b" = [ Token.IDENT "a"; Token.IDENT "b"; Token.EOF ]);
  Alcotest.(check bool) "block comment" true
    (tokens "a /* x\n y */ b" = [ Token.IDENT "a"; Token.IDENT "b"; Token.EOF ])

let test_lexer_strings () =
  Alcotest.(check bool) "quoted name" true
    (tokens {|"Diff-pair-W"|} = [ Token.STRING "Diff-pair-W"; Token.EOF ])

let test_lexer_errors () =
  let expect_error src =
    Alcotest.(check bool) src true
      (try
         ignore (Lexer.tokenize src);
         false
       with Lexer.Error _ -> true)
  in
  expect_error "@";
  expect_error "\"unterminated";
  expect_error "/* unterminated";
  expect_error "1e"

let test_lexer_positions () =
  match Lexer.tokenize "a\n  b" with
  | [ _; b; _ ] ->
    Alcotest.(check int) "line" 2 b.Token.line;
    Alcotest.(check int) "col" 3 b.Token.col
  | _ -> Alcotest.fail "expected three tokens"

(* {2 Expression parsing} *)

let test_parse_expr_precedence () =
  let e = Parser.parse_expr "1 + 2 * x" in
  Alcotest.(check (float 1e-9)) "1 + 2*3" 7. (Expr.eval (fun _ -> 3.) e);
  let e2 = Parser.parse_expr "(1 + 2) * x" in
  Alcotest.(check (float 1e-9)) "(1+2)*3" 9. (Expr.eval (fun _ -> 3.) e2);
  let e3 = Parser.parse_expr "2 * x ^ 2" in
  Alcotest.(check (float 1e-9)) "2 * 3^2" 18. (Expr.eval (fun _ -> 3.) e3);
  let e4 = Parser.parse_expr "-x ^ 2" in
  Alcotest.(check (float 1e-9)) "-(3^2)" (-9.) (Expr.eval (fun _ -> 3.) e4)

let test_parse_expr_functions () =
  let env = function "x" -> 4. | _ -> 2. in
  Alcotest.(check (float 1e-9)) "sqrt" 2.
    (Expr.eval env (Parser.parse_expr "sqrt(x)"));
  Alcotest.(check (float 1e-9)) "min" 2.
    (Expr.eval env (Parser.parse_expr "min(x, y)"));
  Alcotest.(check (float 1e-9)) "nested" 6.
    (Expr.eval env (Parser.parse_expr "abs(0 - x) + max(y, ln(exp(y)))"));
  (* an identifier named like a function but not applied is a variable *)
  let e = Parser.parse_expr "sqrt + 1" in
  Alcotest.(check (list string)) "sqrt as var" [ "sqrt" ] (Expr.vars e)

let test_parse_errors () =
  let expect_error src =
    Alcotest.(check bool) src true
      (try
         ignore (Parser.parse_expr src);
         false
       with Parser.Error _ -> true)
  in
  expect_error "1 +";
  expect_error "x ^ y";
  expect_error "x ^ 2.5";
  expect_error "min(x)";
  expect_error "(x";
  expect_error ""

(* {2 Scenario parsing + elaboration} *)

let minimal_scenario =
  {|
scenario tiny {
  property x : real [0, 10];
  property req : real [1, 20];
  constraint budget : x <= req;
  requirement req = 5;
  object Widget { properties: x; }
  problem top owner leader {
    inputs: req;
    constraints: budget;
    subproblem sub owner worker {
      outputs: x;
      object: Widget;
    }
  }
}
|}

let test_elaborate_minimal () =
  let scenario = Elaborate.load_string minimal_scenario in
  Alcotest.(check string) "name" "tiny" scenario.Scenario.sc_name;
  let dpm = scenario.Scenario.sc_build ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  Alcotest.(check (list string)) "properties" [ "x"; "req" ] (Network.prop_names net);
  Alcotest.(check int) "one constraint" 1 (Network.constraint_count net);
  Alcotest.(check (option (float 0.))) "requirement bound" (Some 5.)
    (Network.assigned_num net "req");
  Alcotest.(check (list string)) "designers" [ "leader"; "worker" ]
    (Dpm.designers dpm);
  Alcotest.(check bool) "object registered" true (Dpm.find_object dpm "Widget" <> None)

let test_monotone_declaration_applied () =
  let src =
    {|
scenario mono {
  property x : real [0, 10];
  property y : real [0, 10];
  constraint c : x * y - y * x + x <= 5.0 {
    monotone decreasing in x;
  }
  problem top owner lead {
    subproblem s owner w { outputs: x, y; constraints: c; }
  }
}
|}
  in
  let scenario = Elaborate.load_string src in
  let dpm = scenario.Scenario.sc_build ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  let con = List.hd (Network.constraints net) in
  (* structurally x*y - y*x + x is Unknown in x (x appears in both mul
     factors of opposite sign); the declaration resolves it: decreasing x
     helps satisfy <=, so increasing x hurts -> helps = `Down... the
     declaration says the property is monotone decreasing, i.e. decreasing
     x helps *)
  Alcotest.(check bool) "declared direction used" true
    (Network.helps_direction net con "x" = `Down)

let test_problem_ordering () =
  let src =
    {|
scenario ordered {
  property a : real [0, 1];
  property b : real [0, 1];
  problem top owner lead {
    subproblem first owner w1 { outputs: a; }
    subproblem second owner w2 { outputs: b; after: first; }
  }
}
|}
  in
  let scenario = Elaborate.load_string src in
  let dpm = scenario.Scenario.sc_build ~mode:Dpm.Conventional in
  let second = List.find (fun p -> p.Problem.pr_name = "second") (Dpm.problems dpm) in
  Alcotest.(check bool) "dependency recorded" true (second.Problem.pr_depends_on <> [])

let test_elaborate_errors () =
  let expect_error src =
    Alcotest.(check bool) "semantic error" true
      (try
         ignore (Elaborate.load_string src);
         false
       with Elaborate.Error _ -> true)
  in
  (* unknown property in constraint *)
  expect_error
    {|scenario s { property x : real [0,1]; constraint c : zz <= 1.0;
      problem t owner l { subproblem a owner w { outputs: x; } } }|};
  (* duplicate property *)
  expect_error
    {|scenario s { property x : real [0,1]; property x : real [0,1];
      problem t owner l { subproblem a owner w { outputs: x; } } }|};
  (* unknown constraint in problem *)
  expect_error
    {|scenario s { property x : real [0,1];
      problem t owner l { subproblem a owner w { outputs: x; constraints: nope; } } }|};
  (* empty real domain *)
  expect_error
    {|scenario s { property x : real [2,1];
      problem t owner l { subproblem a owner w { outputs: x; } } }|};
  (* monotone declaration on non-argument *)
  expect_error
    {|scenario s { property x : real [0,1]; property y : real [0,1];
      constraint c : x <= 1.0 { monotone increasing in y; }
      problem t owner l { subproblem a owner w { outputs: x, y; constraints: c; } } }|};
  (* unknown sibling dependency *)
  expect_error
    {|scenario s { property x : real [0,1];
      problem t owner l { subproblem a owner w { outputs: x; after: ghost; } } }|}

let test_parse_error_positions () =
  try
    ignore (Parser.parse "scenario s {\n  property ; }");
    Alcotest.fail "expected parse error"
  with Parser.Error { line; _ } -> Alcotest.(check int) "line number" 2 line

(* Through [Elaborate.load_string], the same misplaced token surfaces as a
   caret-style [Elaborate.Error] pointing at line, column and source line
   — pinned exactly so the rendering never regresses. *)
let test_caret_error_message () =
  try
    ignore (Elaborate.load_string "scenario s {\n  property ; }");
    Alcotest.fail "expected Elaborate.Error"
  with Elaborate.Error msg ->
    Alcotest.(check string) "caret message"
      "line 2, column 12: expected a name but found ';'\n\
      \    property ; }\n\
      \             ^" msg

(* {2 Printer round-trips} *)

let test_printer_roundtrip_scenarios () =
  List.iter
    (fun (label, src) ->
      let ast = Parser.parse src in
      let printed = Printer.scenario ast in
      let ast2 = Parser.parse printed in
      Alcotest.(check bool) (label ^ " round-trips") true (ast = ast2))
    [
      ("simple", Adpm_scenarios.Simple.source);
      ("sensor", Adpm_scenarios.Sensor.source);
      ("receiver", Adpm_scenarios.Receiver.source);
      ("lna", Adpm_scenarios.Lna.source);
      ("minimal", minimal_scenario);
    ]

(* Same sources through the artifact front door: the canonical contract
   is parse(emit(m)) = m, reported via [Printer.roundtrip]. *)
let test_emit_roundtrip_scenarios () =
  List.iter
    (fun (label, src) ->
      match Printer.roundtrip (Parser.parse src) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" label msg)
    [
      ("simple", Adpm_scenarios.Simple.source);
      ("sensor", Adpm_scenarios.Sensor.source);
      ("receiver", Adpm_scenarios.Receiver.source);
      ("lna", Adpm_scenarios.Lna.source);
      ("minimal", minimal_scenario);
    ]

let printer_expr_roundtrip =
  let gen_expr =
    QCheck.Gen.(
      sized
      @@ fix (fun self n ->
             if n <= 1 then
               oneof
                 [ map (fun c -> Expr.Const c) (float_range (-10.) 10.);
                   oneofl
                     [ Expr.Var "x"; Expr.Var "y"; Expr.Var "weird-name" ] ]
             else
               let sub = self (n / 2) in
               oneof
                 [
                   map2 (fun a b -> Expr.Add (a, b)) sub sub;
                   map2 (fun a b -> Expr.Sub (a, b)) sub sub;
                   map2 (fun a b -> Expr.Mul (a, b)) sub sub;
                   map2 (fun a b -> Expr.Div (a, b)) sub sub;
                   map (fun a -> Expr.Neg a) sub;
                   map (fun a -> Expr.Sqrt a) sub;
                   map (fun a -> Expr.Abs a) sub;
                   map2 (fun a b -> Expr.Min (a, b)) sub sub;
                   map2 (fun a b -> Expr.Max (a, b)) sub sub;
                   map (fun a -> Expr.Pow (a, 2)) sub;
                 ]))
  in
  (* printing then parsing gives back the same tree, modulo the parser's
     unary-minus-on-literal folding (which the generator avoids by never
     nesting Neg directly over a constant... it can, so normalise both) *)
  let rec normalise e =
    match e with
    | Expr.Neg (Expr.Const c) -> Expr.Const (-.c)
    | Expr.Const _ | Expr.Var _ -> e
    | Expr.Neg a -> (
      match normalise a with
      | Expr.Const c -> Expr.Const (-.c)
      | a' -> Expr.Neg a')
    | Expr.Add (a, b) -> Expr.Add (normalise a, normalise b)
    | Expr.Sub (a, b) -> Expr.Sub (normalise a, normalise b)
    | Expr.Mul (a, b) -> Expr.Mul (normalise a, normalise b)
    | Expr.Div (a, b) -> Expr.Div (normalise a, normalise b)
    | Expr.Pow (a, n) -> Expr.Pow (normalise a, n)
    | Expr.Sqrt a -> Expr.Sqrt (normalise a)
    | Expr.Exp a -> Expr.Exp (normalise a)
    | Expr.Ln a -> Expr.Ln (normalise a)
    | Expr.Abs a -> Expr.Abs (normalise a)
    | Expr.Min (a, b) -> Expr.Min (normalise a, normalise b)
    | Expr.Max (a, b) -> Expr.Max (normalise a, normalise b)
  in
  QCheck.Test.make ~name:"printer/parser expression round-trip" ~count:500
    (QCheck.make ~print:Printer.expr gen_expr)
    (fun e ->
      let e = normalise e in
      Parser.parse_expr (Printer.expr e) = e)

(* {2 Equivalence with the OCaml-built simple scenario} *)

let test_dddl_matches_ocaml_scenario () =
  let open Adpm_scenarios in
  let ocaml_reference =
    Scenario.make ~name:"simple-ocaml" ~description:"OCaml-built reference"
      ~models:Simple.models
      (fun ~mode -> Simple.build () ~mode)
  in
  List.iter
    (fun (mode, seed) ->
      let cfg = Config.default ~mode ~seed in
      let a = (Engine.run cfg Simple.scenario).Engine.o_summary in
      let b = (Engine.run cfg ocaml_reference).Engine.o_summary in
      Alcotest.(check int) "ops equal" b.Metrics.s_operations a.Metrics.s_operations;
      Alcotest.(check int) "evals equal" b.Metrics.s_evaluations a.Metrics.s_evaluations;
      Alcotest.(check int) "spins equal" b.Metrics.s_spins a.Metrics.s_spins;
      Alcotest.(check bool) "completed" true a.Metrics.s_completed)
    [ (Dpm.Adpm, 1); (Dpm.Adpm, 5); (Dpm.Conventional, 1); (Dpm.Conventional, 5) ]

let suite =
  [
    ("lexer basics", `Quick, test_lexer_basic);
    ("lexer comments", `Quick, test_lexer_comments);
    ("lexer strings", `Quick, test_lexer_strings);
    ("lexer errors", `Quick, test_lexer_errors);
    ("lexer positions", `Quick, test_lexer_positions);
    ("expression precedence", `Quick, test_parse_expr_precedence);
    ("expression functions", `Quick, test_parse_expr_functions);
    ("expression errors", `Quick, test_parse_errors);
    ("elaborate minimal scenario", `Quick, test_elaborate_minimal);
    ("monotone declarations applied", `Quick, test_monotone_declaration_applied);
    ("problem ordering", `Quick, test_problem_ordering);
    ("semantic errors", `Quick, test_elaborate_errors);
    ("parse error positions", `Quick, test_parse_error_positions);
    ("caret-style load errors", `Quick, test_caret_error_message);
    ("DDDL scenario equals OCaml scenario", `Quick, test_dddl_matches_ocaml_scenario);
    ("printer round-trips scenarios", `Quick, test_printer_roundtrip_scenarios);
    ("emit round-trips scenarios", `Quick, test_emit_roundtrip_scenarios);
    QCheck_alcotest.to_alcotest printer_expr_roundtrip;
  ]
