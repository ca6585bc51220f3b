(* Tests for Adpm_expr: evaluation, simplification, differentiation,
   structural monotonicity, and HC4 revision soundness. *)

open Adpm_interval
open Adpm_expr

let e = Expr.Var "x"
let y = Expr.Var "y"
let check_float = Alcotest.(check (float 1e-9))

let env_of_list bindings name = List.assoc name bindings

(* {2 Evaluation} *)

let test_eval_point () =
  let expr =
    Expr.(Add (Mul (Const 2., Var "x"), Div (Var "y", Const 4.)))
  in
  check_float "2x + y/4" 8.5 (Expr.eval (env_of_list [ ("x", 3.); ("y", 10.) ]) expr)

let test_eval_functions () =
  let env = env_of_list [ ("x", 4.) ] in
  check_float "sqrt" 2. (Expr.eval env (Expr.Sqrt e));
  check_float "ln(exp x)" 4. (Expr.eval env (Expr.Ln (Expr.Exp e)));
  check_float "abs(-x)" 4. (Expr.eval env (Expr.Abs (Expr.Neg e)));
  check_float "min" 3. (Expr.eval env (Expr.Min (e, Expr.Const 3.)));
  check_float "max" 4. (Expr.eval env (Expr.Max (e, Expr.Const 3.)));
  check_float "pow" 64. (Expr.eval env (Expr.Pow (e, 3)))

let test_eval_opt () =
  let partial = function "x" -> Some 2. | _ -> None in
  Alcotest.(check (option (float 1e-9))) "bound" (Some 4.)
    (Expr.eval_opt partial Expr.(Mul (Var "x", Var "x")));
  Alcotest.(check (option (float 1e-9))) "unbound" None
    (Expr.eval_opt partial Expr.(Add (Var "x", Var "z")))

let test_vars_and_mentions () =
  let expr = Expr.(Add (Mul (Var "b", Var "a"), Sub (Var "a", Const 1.))) in
  Alcotest.(check (list string)) "vars in order" [ "b"; "a" ] (Expr.vars expr);
  Alcotest.(check bool) "mentions a" true (Expr.mentions expr "a");
  Alcotest.(check bool) "no c" false (Expr.mentions expr "c");
  Alcotest.(check int) "size" 7 (Expr.size expr)

(* Compiled point programs against the interpreter: every constructor,
   over inputs that stress IEEE corners (signed zeros, NaN, infinities,
   subnormals, negative bases under [Pow]) and over missing inputs. A
   program's result exists exactly when every input is loaded. *)
let point_matches_eval_opt =
  let names = [| "x"; "y"; "z"; "w" |] in
  let corners =
    [ 0.; -0.; 1.; -1.; -2.5; 3.; 0.5; Float.nan; infinity; neg_infinity;
      5e-324; -1e-310; 2.2250738585072014e-308; 1e308; -1e308 ]
  in
  let gen_value =
    QCheck.Gen.(
      frequency [ (3, oneofl corners); (2, float_range (-1e3) 1e3); (1, float) ])
  in
  let gen_expr =
    QCheck.Gen.(
      sized_size (int_bound 40)
      @@ fix (fun self n ->
             if n <= 1 then
               oneof
                 [ map (fun c -> Expr.Const c) gen_value;
                   map (fun i -> Expr.Var names.(i)) (int_bound 3) ]
             else
               let sub = self (n / 2) in
               oneof
                 [
                   map (fun a -> Expr.Neg a) sub;
                   map2 (fun a b -> Expr.Add (a, b)) sub sub;
                   map2 (fun a b -> Expr.Sub (a, b)) sub sub;
                   map2 (fun a b -> Expr.Mul (a, b)) sub sub;
                   map2 (fun a b -> Expr.Div (a, b)) sub sub;
                   map2 (fun a k -> Expr.Pow (a, k)) sub (int_bound 5);
                   map (fun a -> Expr.Sqrt a) sub;
                   map (fun a -> Expr.Exp a) sub;
                   map (fun a -> Expr.Ln a) sub;
                   map (fun a -> Expr.Abs a) sub;
                   map2 (fun a b -> Expr.Min (a, b)) sub sub;
                   map2 (fun a b -> Expr.Max (a, b)) sub sub;
                 ]))
  in
  let gen_env = QCheck.Gen.(array_repeat 4 (opt ~ratio:0.85 gen_value)) in
  let print (e, env) =
    Printf.sprintf "%s with [%s]" (Expr.to_string e)
      (String.concat "; "
         (Array.to_list
            (Array.mapi
               (fun i v ->
                 names.(i) ^ "="
                 ^ match v with Some x -> Printf.sprintf "%h" x | None -> "-")
               env)))
  in
  QCheck.Test.make ~name:"point programs match eval_opt" ~count:3000
    (QCheck.make ~print (QCheck.Gen.pair gen_expr gen_env))
    (fun (e, inputs) ->
      let slot x =
        let rec find i = if names.(i) = x then i else find (i + 1) in
        find 0
      in
      let expected = Expr.eval_opt (fun x -> inputs.(slot x)) e in
      (* the expression between two others: programs index one pool *)
      let progs = Point.compile ~var_id:slot [| Expr.Var "x"; e; Expr.Const 1. |] in
      let env = Array.map (Option.value ~default:0.) inputs in
      let loaded =
        List.for_all
          (fun k -> Option.is_some inputs.(Point.var progs k))
          (List.init (Point.vars_to progs 1 - Point.vars_from progs 1) (fun j ->
               Point.vars_from progs 1 + j))
      in
      let got =
        if loaded then
          Some (Point.eval progs 1 ~env ~stack:(Array.make (Point.nodes progs 1) 0.))
        else None
      in
      match (expected, got) with
      | None, None -> true
      | Some a, Some b ->
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
        || (Float.is_nan a && Float.is_nan b)
      | Some _, None | None, Some _ -> false)

let test_pp_roundtrip_examples () =
  Alcotest.(check string) "precedence" "x + y * x"
    (Expr.to_string Expr.(Add (e, Mul (y, e))));
  Alcotest.(check string) "parens" "(x + y) * x"
    (Expr.to_string Expr.(Mul (Add (e, y), e)));
  Alcotest.(check string) "functions" "sqrt(x + y)"
    (Expr.to_string Expr.(Sqrt (Add (e, y))))

(* {2 Monotone} *)

let box_env bindings name = List.assoc name bindings

let direction_name = function
  | Monotone.Increasing -> "increasing"
  | Monotone.Decreasing -> "decreasing"
  | Monotone.Constant -> "constant"
  | Monotone.Unknown -> "unknown"

let test_monotone_basic () =
  let env = box_env [ ("x", Interval.make 1. 5.); ("y", Interval.make 2. 3.) ] in
  let dir expr = Monotone.direction ~env expr "x" in
  Alcotest.(check string) "x increasing" "increasing"
    (direction_name (dir e));
  Alcotest.(check string) "-x decreasing" "decreasing"
    (direction_name (dir (Expr.Neg e)));
  Alcotest.(check string) "y constant in x" "constant"
    (direction_name (dir y));
  Alcotest.(check string) "x*y increasing (y>0)" "increasing"
    (direction_name (dir (Expr.Mul (e, y))));
  Alcotest.(check string) "x^2 increasing on [1,5]" "increasing"
    (direction_name (dir (Expr.Pow (e, 2))));
  Alcotest.(check string) "sqrt x increasing" "increasing"
    (direction_name (dir (Expr.Sqrt e)));
  Alcotest.(check string) "1/x decreasing (x>0)" "decreasing"
    (direction_name (dir (Expr.Div (Expr.Const 1., e))))

let test_monotone_sign_dependence () =
  let env_neg = box_env [ ("x", Interval.make (-5.) (-1.)) ] in
  Alcotest.(check string) "x^2 decreasing on negatives" "decreasing"
    (direction_name
       (Monotone.direction ~env:env_neg (Expr.Pow (e, 2)) "x"));
  let env_mixed = box_env [ ("x", Interval.make (-2.) 2.) ] in
  Alcotest.(check string) "x^2 unknown across zero" "unknown"
    (direction_name
       (Monotone.direction ~env:env_mixed (Expr.Pow (e, 2)) "x"))

let test_monotone_combinators () =
  (* the combinators behind [direction]: negation flips, a sum combines *)
  let env = box_env [ ("x", Interval.make 1. 5.) ] in
  let dir expr = Monotone.direction ~env expr "x" in
  Alcotest.(check bool) "flip" true (dir (Expr.Neg e) = Monotone.Decreasing);
  Alcotest.(check bool) "combine same" true
    (dir (Expr.Add (e, e)) = Monotone.Increasing);
  Alcotest.(check bool) "combine mixed" true
    (dir (Expr.Add (e, Expr.Neg e)) = Monotone.Unknown);
  Alcotest.(check bool) "combine constant" true
    (dir (Expr.Add (Expr.Const 2., Expr.Neg e)) = Monotone.Decreasing)

(* Soundness: if the analysis says Increasing, sampling must never find a
   strictly decreasing pair (and dually). *)
let monotone_sound =
  let gen_expr =
    QCheck.Gen.(
      sized
      @@ fix (fun self n ->
             if n <= 1 then
               oneof
                 [ map (fun c -> Expr.Const c) (float_range 0.1 5.);
                   return (Expr.Var "x"); return (Expr.Var "y") ]
             else
               let sub = self (n / 2) in
               oneof
                 [
                   map2 (fun a b -> Expr.Add (a, b)) sub sub;
                   map2 (fun a b -> Expr.Sub (a, b)) sub sub;
                   map2 (fun a b -> Expr.Mul (a, b)) sub sub;
                   map (fun a -> Expr.Sqrt a) sub;
                   map (fun a -> Expr.Pow (a, 2)) sub;
                   map2 (fun a b -> Expr.Min (a, b)) sub sub;
                 ]))
  in
  QCheck.Test.make ~name:"monotone analysis is sound (sampling)" ~count:300
    (QCheck.make ~print:Expr.to_string gen_expr)
    (fun expr ->
      let xiv = Interval.make 0.5 4. and yiv = Interval.make 1. 2. in
      let env = box_env [ ("x", xiv); ("y", yiv) ] in
      match Monotone.direction ~env expr "x" with
      | Monotone.Unknown -> true
      | claimed ->
        let ok = ref true in
        for i = 0 to 8 do
          for j = 0 to 7 do
            let x1 = 0.5 +. (float_of_int i *. 3.5 /. 9.) in
            let x2 = x1 +. 0.3 in
            if x2 <= 4. then begin
              let yv = 1. +. (float_of_int j /. 7.) in
              let at x = Expr.eval (box_env [ ("x", x); ("y", yv) ]) expr in
              let v1 = at x1 and v2 = at x2 in
              if Float.is_finite v1 && Float.is_finite v2 then begin
                let tol = 1e-9 *. (1. +. Float.max (abs_float v1) (abs_float v2)) in
                match claimed with
                | Monotone.Increasing -> if v2 < v1 -. tol then ok := false
                | Monotone.Decreasing -> if v2 > v1 +. tol then ok := false
                | Monotone.Constant ->
                  if abs_float (v2 -. v1) > tol then ok := false
                | Monotone.Unknown -> ()
              end
            end
          done
        done;
        !ok)

let suite =
  [
    ("eval point", `Quick, test_eval_point);
    ("eval functions", `Quick, test_eval_functions);
    ("eval_opt", `Quick, test_eval_opt);
    ("vars and mentions", `Quick, test_vars_and_mentions);
    QCheck_alcotest.to_alcotest point_matches_eval_opt;
    ("pretty printing", `Quick, test_pp_roundtrip_examples);
    ("monotone basics", `Quick, test_monotone_basic);
    ("monotone sign dependence", `Quick, test_monotone_sign_dependence);
    ("monotone combinators", `Quick, test_monotone_combinators);
    QCheck_alcotest.to_alcotest monotone_sound;
  ]
