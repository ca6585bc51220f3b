(* Tests for HC4 revision: soundness (no solution is lost), contraction
   (results are sub-intervals of the inputs), and specific projections. *)

open Adpm_interval
open Adpm_expr

let iv = Alcotest.testable Interval.pp Interval.equal

let env_of bindings name = List.assoc name bindings
let full = Interval.make neg_infinity infinity

let narrowed = function
  | Hc4.Narrowed bs -> bs
  | Hc4.Empty -> Alcotest.fail "expected Narrowed"

let test_simple_le () =
  (* x + y <= 5 with x IN [0,10], y IN [2,3]:  x must be <= 3 *)
  let env = env_of [ ("x", Interval.make 0. 10.); ("y", Interval.make 2. 3.) ] in
  let expr = Expr.(Add (Var "x", Var "y")) in
  let bs = narrowed (Hc4.revise ~env expr (Interval.make neg_infinity 5.)) in
  let x = List.assoc "x" bs in
  Alcotest.(check bool) "x hi narrowed to ~3" true
    (Interval.hi x >= 3. && Interval.hi x < 3.001);
  Alcotest.(check (float 1e-9)) "x lo unchanged" 0. (Interval.lo x)

let test_point_satisfied_not_empty () =
  (* the one-ulp regression: degenerate boxes satisfying the target must
     not project to Empty (requires the projection slack) *)
  let env = env_of [ ("ga", Interval.of_point 6.25); ("xa", Interval.of_point 7.5) ] in
  let expr =
    Expr.(Sub (Var "ga", Add (Mul (Const 2., Var "xa"), Const 0.4)))
  in
  match Hc4.revise ~env expr (Interval.make neg_infinity 1e-9) with
  | Hc4.Empty -> Alcotest.fail "satisfied point box must not be Empty"
  | Hc4.Narrowed _ -> ()

let test_certain_violation_empty () =
  let env = env_of [ ("x", Interval.make 5. 6.) ] in
  let expr = Expr.Var "x" in
  (match Hc4.revise ~env expr (Interval.make neg_infinity 4.) with
  | Hc4.Empty -> ()
  | Hc4.Narrowed _ -> Alcotest.fail "x IN [5,6] <= 4 must be Empty");
  match Hc4.revise ~env (Expr.Sqrt (Expr.Neg expr)) full with
  | Hc4.Empty -> ()
  | Hc4.Narrowed _ -> Alcotest.fail "sqrt of negative box must be Empty"

let test_multiplication_projection () =
  (* x * y = 6, x IN [1,10], y IN [2,3] -> x IN [2,3] *)
  let env = env_of [ ("x", Interval.make 1. 10.); ("y", Interval.make 2. 3.) ] in
  let expr = Expr.(Mul (Var "x", Var "y")) in
  let bs = narrowed (Hc4.revise ~env expr (Interval.of_point 6.)) in
  let x = List.assoc "x" bs in
  Alcotest.(check bool) "x within [2,3] (+slack)" true
    (Interval.lo x > 1.99 && Interval.hi x < 3.01)

let test_multiple_occurrences () =
  (* x + x = 4 -> x = 2 (each occurrence projects to [2 - w, 2 + w]
     where w comes from the other occurrence's width; occurrences
     intersect) *)
  let env = env_of [ ("x", Interval.make 0. 10.) ] in
  let expr = Expr.(Add (Var "x", Var "x")) in
  let bs = narrowed (Hc4.revise ~env expr (Interval.of_point 4.)) in
  let x = List.assoc "x" bs in
  Alcotest.(check bool) "contains 2" true (Interval.mem 2. x);
  Alcotest.(check bool) "narrower than input" true (Interval.width x < 10.)

let test_min_max_projection () =
  (* min(x, y) >= 3 forces both above 3 *)
  let env = env_of [ ("x", Interval.make 0. 10.); ("y", Interval.make 0. 10.) ] in
  let expr = Expr.(Min (Var "x", Var "y")) in
  let bs = narrowed (Hc4.revise ~env expr (Interval.make 3. infinity)) in
  Alcotest.(check bool) "x >= 3" true (Interval.lo (List.assoc "x" bs) >= 2.99);
  Alcotest.(check bool) "y >= 3" true (Interval.lo (List.assoc "y" bs) >= 2.99)

let test_unchanged_variables_included () =
  let env = env_of [ ("x", Interval.make 0. 1.); ("y", Interval.make 0. 1.) ] in
  let expr = Expr.(Add (Var "x", Var "y")) in
  let bs = narrowed (Hc4.revise ~env expr full) in
  Alcotest.(check iv) "x unchanged" (Interval.make 0. 1.) (List.assoc "x" bs);
  Alcotest.(check iv) "y unchanged" (Interval.make 0. 1.) (List.assoc "y" bs)

(* {2 Property-based soundness: a random point solution is never lost} *)

let gen_case =
  QCheck.Gen.(
    let* x = float_range (-10.) 10. in
    let* y = float_range 0.1 10. in
    let* wx = float_range 0. 5. in
    let* wy = float_range 0. 5. in
    let* shape = int_range 0 5 in
    return (x, y, wx, wy, shape))

let shape_expr shape =
  let x = Expr.Var "x" and y = Expr.Var "y" in
  match shape with
  | 0 -> Expr.(Add (x, y))
  | 1 -> Expr.(Sub (Mul (x, y), Const 1.))
  | 2 -> Expr.(Add (Pow (x, 2), y))
  | 3 -> Expr.(Div (x, y))
  | 4 -> Expr.(Add (Abs x, Sqrt y))
  | _ -> Expr.(Max (x, Min (y, Const 3.)))

let hc4_preserves_solutions =
  QCheck.Test.make ~name:"HC4 never discards a witness point" ~count:1000
    (QCheck.make
       ~print:(fun (x, y, wx, wy, s) ->
         Printf.sprintf "x=%g y=%g wx=%g wy=%g shape=%d" x y wx wy s)
       gen_case)
    (fun (x, y, wx, wy, shape) ->
      let expr = shape_expr shape in
      let env =
        env_of
          [ ("x", Interval.make (x -. wx) (x +. wx));
            ("y", Interval.make (y -. wy) (y +. wy)) ]
      in
      let value = Expr.eval (env_of [ ("x", x); ("y", y) ]) expr in
      if not (Float.is_finite value) then true
      else begin
        (* target: an interval containing the witness value *)
        let target = Interval.make (value -. 0.5) (value +. 0.5) in
        match Hc4.revise ~env expr target with
        | Hc4.Empty -> false (* witness lost! *)
        | Hc4.Narrowed bs ->
          let tolerance_mem v iv' =
            Interval.mem v (Iv_tol.inflate (1e-9 *. (1. +. abs_float v)) iv')
          in
          tolerance_mem x (List.assoc "x" bs)
          && tolerance_mem y (List.assoc "y" bs)
      end)

let hc4_contracts =
  QCheck.Test.make ~name:"HC4 outputs are sub-intervals of inputs" ~count:500
    (QCheck.make
       ~print:(fun (x, y, wx, wy, s) ->
         Printf.sprintf "x=%g y=%g wx=%g wy=%g shape=%d" x y wx wy s)
       gen_case)
    (fun (x, y, wx, wy, shape) ->
      let expr = shape_expr shape in
      let xiv = Interval.make (x -. wx) (x +. wx) in
      let yiv = Interval.make (y -. wy) (y +. wy) in
      let env = env_of [ ("x", xiv); ("y", yiv) ] in
      match Hc4.revise ~env expr (Interval.make (-5.) 5.) with
      | Hc4.Empty -> true
      | Hc4.Narrowed bs ->
        Iv_tol.subset (List.assoc "x" bs) xiv
        && Iv_tol.subset (List.assoc "y" bs) yiv)

(* {2 Compiled kernel: bit-identical to the boxed interpreter} *)

let shape_expr_k shape =
  let x = Expr.Var "x" and y = Expr.Var "y" in
  match shape with
  (* repeated occurrences exercise the accumulator intersection path *)
  | 6 -> Expr.(Add (x, x))
  | 7 -> Expr.(Mul (Add (x, y), Sub (x, y)))
  | 8 -> Expr.(Sub (Ln y, Neg x))
  | 9 -> Expr.(Sub (Pow (x, 3), Div (y, x)))
  | 10 -> Expr.(Add (Exp x, Min (Abs y, Neg x)))
  | 11 -> Expr.(Sub (Sqrt x, Pow (y, 4)))
  | 12 -> Expr.(Max (Ln x, Mul (y, Const 0.)))
  | s -> shape_expr s

let n_shapes_k = 13

(* Boxes where a float min/max rewrite could differ from the polymorphic
   one: infinite bounds, zero-width boxes at [0.] and [-0.], boxes
   straddling or touching zero, alongside ordinary finite ones. *)
let gen_box =
  QCheck.Gen.(
    let finite =
      let* c = float_range (-10.) 10. in
      let* w = float_range 0. 5. in
      return (c -. w, c +. w)
    in
    let magnitude = float_range 0. 10. in
    frequency
      [
        (4, finite);
        (1, return (0., 0.));
        (1, return (-0., -0.));
        (1, return (-0., 0.));
        (2, map2 (fun a b -> (-.a, b)) magnitude magnitude);
        (1, map (fun b -> (-0., b)) magnitude);
        (1, map (fun a -> (-.a, 0.)) magnitude);
        (1, map (fun a -> (a -. 5., infinity)) magnitude);
        (1, map (fun b -> (neg_infinity, b -. 5.)) magnitude);
        (1, return (neg_infinity, infinity));
      ])

let gen_target =
  QCheck.Gen.(
    frequency
      [
        (3, return (-5., 5.));
        (1, return (neg_infinity, 1e-9));
        (1, return (-1e-9, infinity));
        (1, return (0., 0.));
        (1, return (-0., -0.));
      ])

let gen_case_k =
  QCheck.Gen.(
    let* xb = gen_box in
    let* yb = gen_box in
    let* tb = gen_target in
    let* shape = int_bound (n_shapes_k - 1) in
    return (xb, yb, tb, shape))

let print_case_k ((xl, xh), (yl, yh), (tl, th), s) =
  Printf.sprintf "x=[%h,%h] y=[%h,%h] target=[%h,%h] shape=%d" xl xh yl yh tl
    th s

(* equal down to the sign of zero; any NaN matches any NaN *)
let same_float a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let var_id_xy = function "x" -> 0 | "y" -> 1 | n -> failwith n

let kernel_matches_boxed =
  QCheck.Test.make
    ~name:"compiled kernel is bit-identical to the boxed revise" ~count:4000
    (QCheck.make ~print:print_case_k gen_case_k)
    (fun ((xl, xh), (yl, yh), (tl, th), shape) ->
      let expr = shape_expr_k shape in
      let env = env_of [ ("x", Interval.make xl xh); ("y", Interval.make yl yh) ] in
      let target = Interval.make tl th in
      let k = Hc4.compile ~var_id:var_id_xy expr ~target in
      let sc = Hc4.scratch ~nodes:(Hc4.max_nodes k) ~slots:(Hc4.max_slots k) in
      let lo = [| xl; yl |] and hi = [| xh; yh |] in
      match Hc4.revise ~env expr target with
      | exception Invalid_argument _ ->
        (* the boxed path cannot represent a NaN bound (e.g. inf/inf in a
           division) and refuses; there is nothing to compare against *)
        QCheck.assume_fail ()
      | boxed -> (
        match (boxed, Hc4.revise_kernel k 0 sc ~lo ~hi) with
        | Hc4.Empty, false -> true
        | Hc4.Empty, true | Hc4.Narrowed _, false -> false
        | Hc4.Narrowed bs, true ->
          (* the accumulators are indexed by slot ([Hc4.var]: the
             expression's variable order), and must hold the exact same
             floats as the boxed result *)
          let pos name =
            let id = var_id_xy name in
            let rec find j = if Hc4.var k 0 j = id then j else find (j + 1) in
            find 0
          in
          List.for_all
            (fun (name, iv') ->
              let j = pos name in
              same_float sc.Hc4.s_acc_lo.(j) (Interval.lo iv')
              && same_float sc.Hc4.s_acc_hi.(j) (Interval.hi iv'))
            bs))

(* {2 Kernel-based classification} *)

let rels = [| Adpm_csp.Constr.Le; Adpm_csp.Constr.Ge; Adpm_csp.Constr.Eq |]

(* [eval_kernel] + [Constr.kernel_status] is how propagation classifies a
   constraint; it must agree with the boxed [Constr.status_on_box] on the
   same box, including the boxes where [sqrt]/[ln] are undefined, and the
   root interval it leaves must be [Expr.eval_interval]'s bit for bit. *)
let kernel_status_matches_boxed =
  QCheck.Test.make
    ~name:"eval_kernel equals eval_interval and Constr.status_on_box"
    ~count:4000
    (QCheck.make
       ~print:(fun (case, rel, rhs) ->
         Printf.sprintf "%s rel=%d rhs=%g" (print_case_k case) rel rhs)
       QCheck.Gen.(
         triple gen_case_k (int_bound 2)
           (oneofl [ 0.; -0.; 1e-9; -1e-9; 3.; -3.; 1e-10 ])))
    (fun (((xl, xh), (yl, yh), _, shape), rel, rhs) ->
      let open Adpm_csp in
      let c =
        Constr.make ~id:0 ~name:"c" (shape_expr_k shape) rels.(rel)
          (Expr.Const rhs)
      in
      let env = env_of [ ("x", Interval.make xl xh); ("y", Interval.make yl yh) ] in
      let k =
        Hc4.compile ~var_id:var_id_xy (Constr.diff c) ~target:(Constr.target c)
      in
      let sc = Hc4.scratch ~nodes:(Hc4.max_nodes k) ~slots:(Hc4.max_slots k) in
      let defined = Hc4.eval_kernel k 0 sc ~lo:[| xl; yl |] ~hi:[| xh; yh |] in
      let root = Hc4.nodes k 0 - 1 in
      (match Expr.eval_interval env (Constr.diff c) with
      | None -> not defined
      | Some d ->
        defined
        && same_float sc.Hc4.s_flo.(root) (Interval.lo d)
        && same_float sc.Hc4.s_fhi.(root) (Interval.hi d))
      &&
      let kernel = if defined then Constr.kernel_status c k 0 sc else Constr.Violated in
      kernel = Constr.status_on_box env c)

let test_kernel_status_undefined () =
  let open Adpm_csp in
  let env = env_of [ ("x", Interval.make (-3.) (-1.)); ("y", Interval.make 0. 1.) ] in
  List.iter
    (fun (name, lhs) ->
      let c = Constr.make ~id:0 ~name lhs Constr.Le (Expr.Const 1.) in
      let k =
        Hc4.compile ~var_id:var_id_xy (Constr.diff c) ~target:(Constr.target c)
      in
      Alcotest.(check bool) (name ^ ": the kernel finds no value") false
        (Hc4.eval_kernel k 0
           (Hc4.scratch ~nodes:(Hc4.max_nodes k) ~slots:(Hc4.max_slots k))
           ~lo:[| -3.; 0. |] ~hi:[| -1.; 1. |]);
      Alcotest.(check string) (name ^ ": boxed status") "Violated"
        (Constr.status_to_string (Constr.status_on_box env c)))
    Expr.
      [
        ("sqrt of a negative box", Sqrt (Var "x"));
        ("ln of a negative box", Ln (Var "x"));
        ("ln of [0, 0]", Ln (Mul (Var "y", Const 0.)));
      ]

(* {2 The kernels allocate nothing} *)

(* One expression per opcode, over x in [-2, 3] and y in [-1, 2] (both
   straddle zero, so [x / y] divides by a zero-straddling box) and
   z in [0.5, 4]. *)
let per_opcode =
  let x = Expr.Var "x" and y = Expr.Var "y" and z = Expr.Var "z" in
  Expr.
    [
      ("const and var", Sub (x, Const 1.));
      ("neg", Neg x);
      ("add", Add (x, y));
      ("sub", Sub (x, y));
      ("mul", Mul (x, y));
      ("div by a zero-straddling box", Div (x, y));
      ("pow 0", Pow (x, 0));
      ("even pow", Pow (x, 2));
      ("pow 4", Pow (x, 4));
      ("odd pow", Pow (x, 3));
      ("sqrt", Sqrt z);
      ("sqrt of a negative box", Sqrt (Neg z));
      ("ln", Ln z);
      ("exp", Exp x);
      ("abs", Abs x);
      ("min", Min (x, y));
      ("max", Max (x, y));
    ]

let test_kernels_allocate_nothing () =
  (* bytecode boxes every float; the claim is about native code *)
  if Sys.backend_type = Sys.Native then begin
    let var_id = function "x" -> 0 | "y" -> 1 | "z" -> 2 | n -> failwith n in
    let lo = [| -2.; -1.; 0.5 |] and hi = [| 3.; 2.; 4. |] in
    let words f =
      ignore (f ());
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (f ())
      done;
      Gc.minor_words () -. before
    in
    List.iter
      (fun (name, e) ->
        (* a satisfiable target and one that empties the constraint *)
        List.iter
          (fun target ->
            let k = Hc4.compile ~var_id e ~target in
            let sc = Hc4.scratch ~nodes:(Hc4.max_nodes k) ~slots:(Hc4.max_slots k) in
            let name = Printf.sprintf "%s in %s" name (Interval.to_string target) in
            Alcotest.(check (float 0.)) (name ^ ": revise_kernel words") 0.
              (words (fun () -> Hc4.revise_kernel k 0 sc ~lo ~hi));
            Alcotest.(check (float 0.)) (name ^ ": eval_kernel words") 0.
              (words (fun () -> Hc4.eval_kernel k 0 sc ~lo ~hi)))
          [ Interval.make (-0.5) 0.5; Interval.make 50. 60. ])
      per_opcode
  end

let suite =
  [
    ("simple inequality projection", `Quick, test_simple_le);
    ("satisfied point box is not Empty", `Quick, test_point_satisfied_not_empty);
    ("certain violation is Empty", `Quick, test_certain_violation_empty);
    ("multiplication projection", `Quick, test_multiplication_projection);
    ("multiple occurrences intersect", `Quick, test_multiple_occurrences);
    ("min/max projection", `Quick, test_min_max_projection);
    ("unchanged variables included", `Quick, test_unchanged_variables_included);
    QCheck_alcotest.to_alcotest hc4_preserves_solutions;
    QCheck_alcotest.to_alcotest hc4_contracts;
    QCheck_alcotest.to_alcotest kernel_matches_boxed;
    QCheck_alcotest.to_alcotest kernel_status_matches_boxed;
    ("undefined sqrt/ln status is Violated", `Quick, test_kernel_status_undefined);
    ("kernels allocate nothing", `Quick, test_kernels_allocate_nothing);
  ]
