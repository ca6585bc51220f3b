(* Tests for Adpm_dddl: lexer, parser, elaboration, error reporting,
   requirement overrides and printer round-trips. *)

open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_dddl

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

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
      problem t owner l { subproblem a owner w { outputs: x; after: ghost; } } }|};
  (* requirements: a duplicate, and values outside the property's domain *)
  let expect_message needle src =
    match Elaborate.load_string src with
    | _ -> Alcotest.failf "accepted: %s" src
    | exception Elaborate.Error msg ->
      Alcotest.(check bool) (needle ^ " in: " ^ msg) true (contains msg needle)
  in
  expect_message "duplicate requirement r"
    {|scenario s { property r : real [0,10]; requirement r = 1; requirement r = 3;
      problem t owner l { inputs: r; } }|};
  expect_message "requirement r = 50 lies outside the domain of r"
    {|scenario s { property r : real [0,10]; requirement r = 50;
      problem t owner l { inputs: r; } }|};
  expect_message "requirement r = 12 lies outside"
    {|scenario s { property r : discrete {8, 10}; requirement r = 12;
      problem t owner l { inputs: r; } }|};
  expect_message "requirement r = 1 lies outside"
    {|scenario s { property r : symbol {lo, hi}; requirement r = 1;
      problem t owner l { inputs: r; } }|}

(* A requirement override replaces declared values only, in place, and
   goes through the same checks as the declaration it derives from. *)
let test_requirement_overrides () =
  let decl = Parser.parse minimal_scenario in
  let over = Elaborate.with_requirements [ ("req", 7.) ] decl in
  Alcotest.(check (list (pair string (float 0.)))) "value replaced"
    [ ("req", 7.) ] over.Ast.sd_requirements;
  let dpm = (Elaborate.scenario over).Scenario.sc_build ~mode:Dpm.Adpm in
  Alcotest.(check (option (float 0.))) "override bound" (Some 7.)
    (Network.assigned_num (Dpm.network dpm) "req");
  let rejects label values =
    Alcotest.(check bool) label true
      (try
         ignore (Elaborate.with_requirements values decl);
         false
       with Elaborate.Error _ -> true)
  in
  rejects "undeclared requirement" [ ("x", 1.) ];
  rejects "unknown name" [ ("ghost", 1.) ];
  rejects "outside the domain" [ ("req", 50.) ];
  (* the receiver's Fig. 10 variant: only req-gain moves *)
  let base = Parser.parse Adpm_scenarios.Receiver.source in
  let tight = Elaborate.with_requirements [ ("req-gain", 2000.) ] base in
  Alcotest.(check bool) "everything but the requirement kept" true
    ({ tight with Ast.sd_requirements = base.Ast.sd_requirements } = base);
  Alcotest.(check (option (float 0.))) "req-gain overridden" (Some 2000.)
    (List.assoc_opt "req-gain" tight.Ast.sd_requirements)

(* A scenario file whose requirement lies outside its domain is refused
   when it is resolved (what [teamsim serve]'s [open file:] does), not at
   first build. *)
let test_file_requirement_refused () =
  let path = Filename.temp_file "dddl" ".dddl" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        {|scenario s { property r : real [0,10]; requirement r = 50;
          problem t owner l { inputs: r; } }|});
  let result = Adpm_scenarios.Registry.resolve_result ("file:" ^ path) in
  Sys.remove path;
  match result with
  | Error msg ->
    Alcotest.(check bool) "names the requirement" true
      (contains msg "requirement r = 50")
  | Ok _ -> Alcotest.fail "out-of-domain requirement resolved"

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

(* {2 Printer round-trips}

   parse (print d) = d, reported through [Printer.roundtrip], for every
   built-in declaration — the walkthrough's derived one included. *)

let test_printer_roundtrip_scenarios () =
  List.iter
    (fun (label, decl) ->
      match Printer.roundtrip decl with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" label msg)
    [
      ("simple", Parser.parse Adpm_scenarios.Simple.source);
      ("sensor", Parser.parse Adpm_scenarios.Sensor.source);
      ("receiver", Parser.parse Adpm_scenarios.Receiver.source);
      ("lna", Parser.parse Adpm_scenarios.Lna.source);
      ("lna walkthrough", Adpm_scenarios.Lna.adjustable_requirements);
      ("minimal", Parser.parse minimal_scenario);
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
    ("requirement overrides", `Quick, test_requirement_overrides);
    ("file with an out-of-domain requirement refused", `Quick,
     test_file_requirement_refused);
    ("parse error positions", `Quick, test_parse_error_positions);
    ("caret-style load errors", `Quick, test_caret_error_message);
    ("printer round-trips scenarios", `Quick, test_printer_roundtrip_scenarios);
    QCheck_alcotest.to_alcotest printer_expr_roundtrip;
  ]
