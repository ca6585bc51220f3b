open Adpm_expr
open Adpm_csp

let is_plain_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s
  && Token.keyword_of_string s = None

let name s = if is_plain_ident s then s else Printf.sprintf "%S" s

(* Shortest decimal rendering that parses back to the same float. *)
let float_lit x =
  let try_fmt fmt =
    let s = Printf.sprintf fmt x in
    if float_of_string s = x then Some s else None
  in
  match try_fmt "%.12g" with
  | Some s -> s
  | None -> ( match try_fmt "%.17g" with Some s -> s | None -> string_of_float x)

(* DDDL grammar precedence: 0 additive, 1 multiplicative, 2 unary,
   3 power base (atoms only). *)
let expr e =
  let buf = Buffer.create 64 in
  let rec go prec e =
    let paren p body =
      if p < prec then begin
        Buffer.add_char buf '(';
        body ();
        Buffer.add_char buf ')'
      end
      else body ()
    in
    match e with
    | Expr.Const c ->
      if c < 0. then
        paren 2 (fun () -> Buffer.add_string buf (float_lit c))
      else Buffer.add_string buf (float_lit c)
    | Expr.Var x -> Buffer.add_string buf (name x)
    | Expr.Neg a ->
      paren 2 (fun () ->
          Buffer.add_char buf '-';
          go 2 a)
    | Expr.Add (a, b) ->
      paren 0 (fun () ->
          go 0 a;
          Buffer.add_string buf " + ";
          go 1 b)
    | Expr.Sub (a, b) ->
      paren 0 (fun () ->
          go 0 a;
          Buffer.add_string buf " - ";
          go 1 b)
    | Expr.Mul (a, b) ->
      paren 1 (fun () ->
          go 1 a;
          Buffer.add_string buf " * ";
          go 2 b)
    | Expr.Div (a, b) ->
      paren 1 (fun () ->
          go 1 a;
          Buffer.add_string buf " / ";
          go 2 b)
    | Expr.Pow (a, n) ->
      paren 2 (fun () ->
          go 3 a;
          Buffer.add_string buf (Printf.sprintf "^%d" n))
    | Expr.Sqrt a -> call "sqrt" [ a ]
    | Expr.Exp a -> call "exp" [ a ]
    | Expr.Ln a -> call "ln" [ a ]
    | Expr.Abs a -> call "abs" [ a ]
    | Expr.Min (a, b) -> call "min" [ a; b ]
    | Expr.Max (a, b) -> call "max" [ a; b ]
  and call fn args =
    Buffer.add_string buf fn;
    Buffer.add_char buf '(';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        go 0 a)
      args;
    Buffer.add_char buf ')'
  in
  go 0 e;
  Buffer.contents buf

let domain = function
  | Ast.D_real (lo, hi) ->
    Printf.sprintf "real [%s, %s]" (float_lit lo) (float_lit hi)
  | Ast.D_discrete values ->
    Printf.sprintf "discrete {%s}" (String.concat ", " (List.map float_lit values))
  | Ast.D_symbol values ->
    Printf.sprintf "symbol {%s}" (String.concat ", " (List.map name values))

let rel = function Constr.Le -> "<=" | Constr.Ge -> ">=" | Constr.Eq -> "="

let name_list names = String.concat ", " (List.map name names)

let scenario decl =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "scenario %s {\n" (name decl.Ast.sd_name);
  List.iter
    (fun p ->
      add "  property %s : %s%s;\n" (name p.Ast.pd_name) (domain p.Ast.pd_domain)
        (match p.Ast.pd_levels with
        | Some l -> Printf.sprintf " levels %S" l
        | None -> ""))
    decl.Ast.sd_properties;
  List.iter
    (fun c ->
      add "  constraint %s : %s %s %s" (name c.Ast.cd_name) (expr c.Ast.cd_lhs)
        (rel c.Ast.cd_rel) (expr c.Ast.cd_rhs);
      match c.Ast.cd_monotone with
      | [] -> add ";\n"
      | decls ->
        add " {\n";
        List.iter
          (fun m ->
            add "    monotone %s in %s;\n"
              (match m.Ast.md_helps with
              | `Increasing -> "increasing"
              | `Decreasing -> "decreasing")
              (name m.Ast.md_prop))
          decls;
        add "  }\n")
    decl.Ast.sd_constraints;
  List.iter
    (fun (target, model) -> add "  model %s = %s;\n" (name target) (expr model))
    decl.Ast.sd_models;
  List.iter
    (fun (target, value) ->
      add "  requirement %s = %s;\n" (name target) (float_lit value))
    decl.Ast.sd_requirements;
  List.iter
    (fun (obj, props) ->
      add "  object %s { properties: %s; }\n" (name obj) (name_list props))
    decl.Ast.sd_objects;
  let rec problem indent kw p =
    let pad = String.make indent ' ' in
    add "%s%s %s owner %s {\n" pad kw (name p.Ast.prd_name) (name p.Ast.prd_owner);
    let field label = function
      | [] -> ()
      | xs -> add "%s  %s: %s;\n" pad label (name_list xs)
    in
    field "inputs" p.Ast.prd_inputs;
    field "outputs" p.Ast.prd_outputs;
    field "constraints" p.Ast.prd_constraints;
    (match p.Ast.prd_object with
    | Some o -> add "%s  object: %s;\n" pad (name o)
    | None -> ());
    field "after" p.Ast.prd_after;
    List.iter (problem (indent + 2) "subproblem") p.Ast.prd_children;
    add "%s}\n" pad
  in
  problem 2 "problem" decl.Ast.sd_problem;
  add "}\n";
  Buffer.contents buf

(* The artifact contract on top of the renderer: the emitted text is the
   canonical spelling of the scenario, and parsing it back yields a
   structurally identical declaration. Generated scenarios go through
   [checked], so a rendering bug cannot ship an artifact that elaborates
   to a different network than the in-memory declaration. *)
let roundtrip decl =
  let src = scenario decl in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match Parser.parse src with
  | parsed when parsed = decl -> Ok src
  | _ ->
    fail "emitted DDDL for %s does not round-trip: parse(emit(m)) <> m"
      decl.Ast.sd_name
  | exception Lexer.Error { line; col; message } ->
    fail "emitted DDDL for %s fails to lex at %d:%d: %s" decl.Ast.sd_name line
      col message
  | exception Parser.Error { line; col; message } ->
    fail "emitted DDDL for %s fails to parse at %d:%d: %s" decl.Ast.sd_name
      line col message

let checked decl =
  match roundtrip decl with
  | Ok src -> src
  | Error msg -> raise (Elaborate.Error msg)
