(* Tests for Adpm_interval: interval arithmetic soundness (the inclusion
   property checked by sampling), inverse projections, and domains. *)

open Adpm_interval

let iv = Alcotest.testable Interval.pp Interval.equal
let full = Interval.make neg_infinity infinity
let check_float = Alcotest.(check (float 1e-9))

(* {2 Interval unit tests} *)

let test_make_validation () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (Interval.make 2. 1.));
  Alcotest.check_raises "nan" (Invalid_argument "Interval.make: NaN bound")
    (fun () -> ignore (Interval.make nan 1.))

let test_basic_queries () =
  let a = Interval.make 1. 3. in
  Alcotest.(check bool) "mem" true (Interval.mem 2. a);
  Alcotest.(check bool) "mem edge" true (Interval.mem 3. a);
  Alcotest.(check bool) "not mem" false (Interval.mem 3.1 a);
  check_float "width" 2. (Interval.width a);
  check_float "midpoint" 2. (Interval.midpoint a);
  Alcotest.(check bool) "bounded" true (Interval.is_bounded a);
  Alcotest.(check bool) "full unbounded" false (Interval.is_bounded full)

let test_midpoint_unbounded () =
  check_float "full" 0. (Interval.midpoint full);
  check_float "right-unbounded" 3. (Interval.midpoint (Interval.make 3. infinity));
  check_float "left-unbounded" 7.
    (Interval.midpoint (Interval.make neg_infinity 7.))

let test_intersect_hull () =
  let a = Interval.make 0. 5. and b = Interval.make 3. 9. in
  Alcotest.(check (option iv)) "overlap" (Some (Interval.make 3. 5.))
    (Interval.intersect a b);
  Alcotest.(check (option iv)) "disjoint" None
    (Interval.intersect a (Interval.make 6. 7.));
  Alcotest.(check (option iv)) "hull" (Some (Interval.make 0. 9.))
    (Domain.hull (Domain.finite [ 5.; 0.; 9.; 3. ]));
  (* touching intervals intersect in a point *)
  Alcotest.(check (option iv)) "touching" (Some (Interval.of_point 5.))
    (Interval.intersect a (Interval.make 5. 8.))

let test_div_zero_straddle () =
  let z = Interval.div (Interval.make 1. 2.) (Interval.make (-1.) 1.) in
  Alcotest.(check iv) "straddling divisor gives full" full z;
  let pos = Interval.div (Interval.make 1. 2.) (Interval.make 0. 1.) in
  check_float "half-open divisor: lo" 1. (Interval.lo pos);
  Alcotest.(check bool) "half-open divisor: unbounded above" true
    (Interval.hi pos = infinity)

let test_pow_even_straddle () =
  let sq = Interval.pow_int (Interval.make (-2.) 3.) 2 in
  Alcotest.(check iv) "x^2 over [-2,3]" (Interval.make 0. 9.) sq

let test_partial_functions () =
  Alcotest.(check (option iv)) "sqrt of negative" None
    (Interval.sqrt_i (Interval.make (-3.) (-1.)));
  Alcotest.(check (option iv)) "sqrt clamps" (Some (Interval.make 0. 2.))
    (Interval.sqrt_i (Interval.make (-1.) 4.));
  Alcotest.(check (option iv)) "ln of nonpositive" None
    (Interval.ln_i (Interval.make (-1.) 0.));
  (match Interval.ln_i (Interval.make 0. Float.(exp 1.)) with
  | Some l ->
    Alcotest.(check bool) "ln lo = -inf" true (Interval.lo l = neg_infinity);
    check_float "ln hi = 1" 1. (Interval.hi l)
  | None -> Alcotest.fail "ln of [0,e] should be defined")

(* {2 Property-based inclusion tests}

   For each binary operation op and points x IN a, y IN b:
   (x op y) IN (a op b). *)

let gen_interval =
  QCheck.Gen.(
    let* a = float_range (-100.) 100. in
    let* b = float_range (-100.) 100. in
    return (Interval.make (Float.min a b) (Float.max a b)))

let arb_interval = QCheck.make ~print:Interval.to_string gen_interval

let gen_point_in a =
  QCheck.Gen.(
    let* t = float_range 0. 1. in
    return (Interval.lo a +. (t *. Interval.width a)))

let arb_pair_with_points =
  QCheck.make
    ~print:(fun (a, b, x, y) ->
      Printf.sprintf "%s %s x=%g y=%g" (Interval.to_string a)
        (Interval.to_string b) x y)
    QCheck.Gen.(
      let* a = gen_interval in
      let* b = gen_interval in
      let* x = gen_point_in a in
      let* y = gen_point_in b in
      return (a, b, x, y))

let tol = 1e-9

let mem_approx v res =
  Float.is_nan v
  || Interval.mem v (Iv_tol.inflate (tol *. (1. +. abs_float v)) res)

let inclusion name op point_op =
  QCheck.Test.make ~name ~count:500 arb_pair_with_points (fun (a, b, x, y) ->
      mem_approx (point_op x y) (op a b))

let incl_add = inclusion "interval add inclusion" Interval.add ( +. )
let incl_sub = inclusion "interval sub inclusion" Interval.sub ( -. )
let incl_mul = inclusion "interval mul inclusion" Interval.mul ( *. )

let incl_div =
  QCheck.Test.make ~name:"interval div inclusion" ~count:500
    arb_pair_with_points (fun (a, b, x, y) ->
      y = 0. || mem_approx (x /. y) (Interval.div a b))

let incl_min = inclusion "interval min inclusion" Interval.min_i Float.min
let incl_max = inclusion "interval max inclusion" Interval.max_i Float.max

let incl_unary =
  QCheck.Test.make ~name:"interval unary inclusion (neg/abs/sq/exp)" ~count:500
    (QCheck.make
       ~print:(fun (a, x) -> Printf.sprintf "%s x=%g" (Interval.to_string a) x)
       QCheck.Gen.(
         let* a = gen_interval in
         let* x = gen_point_in a in
         return (a, x)))
    (fun (a, x) ->
      mem_approx (-.x) (Interval.neg a)
      && mem_approx (abs_float x) (Interval.abs_i a)
      && mem_approx (x *. x) (Interval.pow_int a 2)
      && mem_approx (x *. x *. x) (Interval.pow_int a 3)
      &&
      (* exp overflows for large x; restrict *)
      (abs_float x > 50. || mem_approx (exp x) (Interval.exp_i a)))

(* Inverse projections: if z = x + y with x IN a, y IN b, then
   x IN inv_add_left (a+b) b, etc. *)
let incl_inverse =
  QCheck.Test.make ~name:"inverse projections contain witnesses" ~count:500
    arb_pair_with_points (fun (a, b, x, y) ->
      let sum = Interval.add a b and diff = Interval.sub a b in
      let prod = Interval.mul a b in
      mem_approx x (Interval.inv_add_left sum b)
      && mem_approx x (Interval.inv_sub_left diff b)
      && mem_approx y (Interval.inv_sub_right diff a)
      && (Interval.mem 0. b || mem_approx x (Interval.inv_mul prod b)))

(* inv_pow is a sound preimage: x IN inv_pow_int (pow x n) n *)
let incl_pow_roundtrip =
  QCheck.Test.make ~name:"inv_pow contains the witness" ~count:500
    (QCheck.make
       ~print:(fun (a, x, n) ->
         Printf.sprintf "%s x=%g n=%d" (Interval.to_string a) x n)
       QCheck.Gen.(
         let* a = gen_interval in
         let* x = gen_point_in a in
         let* n = int_range 1 4 in
         return (a, x, n)))
    (fun (a, x, n) ->
      let z = Interval.pow_int a n in
      match Interval.inv_pow_int z n with
      | None -> false
      | Some pre -> mem_approx x pre)

(* refine always returns a subset of the original numeric domain *)
let refine_is_subset =
  QCheck.Test.make ~name:"Domain.refine contracts" ~count:500
    (QCheck.make
       ~print:(fun (lo, hi, a, b) -> Printf.sprintf "[%g,%g] refine [%g,%g]" lo hi a b)
       QCheck.Gen.(
         let* lo = float_range (-50.) 50. in
         let* w = float_range 0. 50. in
         let* a = float_range (-60.) 60. in
         let* wb = float_range 0. 60. in
         return (lo, lo +. w, a, a +. wb)))
    (fun (lo, hi, a, b) ->
      let d = Domain.continuous lo hi in
      match Domain.refine d (Interval.make a b) with
      | Domain.Empty -> true
      | refined ->
        Domain.measure refined <= Domain.measure d +. 1e-9
        && (match Domain.hull refined with
           | Some r ->
             Interval.lo r >= lo -. 1e-9 && Interval.hi r <= hi +. 1e-9
           | None -> false))

(* {2 Domain} *)

let dom = Alcotest.testable Domain.pp Domain.equal

let test_domain_constructors () =
  Alcotest.(check dom) "finite sorts and dedups"
    (Domain.finite [ 3.; 1.; 2. ])
    (Domain.finite [ 2.; 1.; 3.; 1. ]);
  Alcotest.(check dom) "empty finite" Domain.Empty (Domain.finite []);
  Alcotest.(check dom) "empty symbolic" Domain.Empty (Domain.symbolic []);
  Alcotest.(check bool) "symbolic keeps order" true
    (match Domain.symbolic [ "b"; "a"; "b" ] with
    | Domain.Symbolic [ "b"; "a" ] -> true
    | _ -> false)

let test_domain_queries () =
  let c = Domain.continuous 1. 5. in
  Alcotest.(check bool) "mem_num" true (Domain.mem_num 3. c);
  Alcotest.(check bool) "not mem_num" false (Domain.mem_num 6. c);
  Alcotest.(check (option iv)) "hull" (Some (Interval.make 1. 5.)) (Domain.hull c);
  check_float "measure" 4. (Domain.measure c);
  let f = Domain.finite [ 1.; 2.; 4. ] in
  check_float "finite measure" 2. (Domain.measure f)

let test_domain_refine () =
  let c = Domain.continuous 0. 10. in
  Alcotest.(check dom) "narrows" (Domain.continuous 2. 5.)
    (Domain.refine c (Interval.make 2. 5.));
  Alcotest.(check dom) "empty when disjoint" Domain.Empty
    (Domain.refine c (Interval.make 11. 12.));
  let f = Domain.finite [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check dom) "finite filtered" (Domain.finite [ 2.; 3. ])
    (Domain.refine f (Interval.make 1.5 3.5));
  let s = Domain.symbolic [ "x" ] in
  Alcotest.(check dom) "symbolic untouched" s (Domain.refine s (Interval.make 0. 1.))

let test_relative_measure () =
  let initial = Domain.continuous 0. 10. in
  check_float "half" 0.5
    (Domain.relative_measure ~initial (Domain.continuous 0. 5.));
  check_float "singleton initial gives 1" 1.
    (Domain.relative_measure ~initial:(Domain.continuous 3. 3.)
       (Domain.continuous 3. 3.));
  check_float "empty is 0" 0. (Domain.relative_measure ~initial Domain.Empty)

(* The monomorphic float min/max every interval operation now uses must
   select exactly what the polymorphic Stdlib versions do, NaN and signed
   zeros included (compared bit for bit). *)
let test_fmin_fmax_match_stdlib () =
  let specials =
    [ nan; -.nan; 0.; -0.; 1.; -1.; 2.5; -2.5; infinity; neg_infinity;
      Float.min_float; Float.max_float ]
  in
  let bits = Int64.bits_of_float in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let name op = Printf.sprintf "%s %h %h" op a b in
          Alcotest.(check int64) (name "fmin") (bits (Stdlib.min a b))
            (bits (Interval.fmin a b));
          (* [fmax] is internal; [max_i]'s lower bound is [fmax] of the
             operands' lower bounds, and points cannot be NaN *)
          if not (Float.is_nan a || Float.is_nan b) then
            Alcotest.(check int64) (name "fmax") (bits (Stdlib.max a b))
              (bits
                 (Interval.lo
                    (Interval.max_i (Interval.of_point a) (Interval.of_point b)))))
        specials)
    specials

let suite =
  [
    ("make validation", `Quick, test_make_validation);
    ("fmin/fmax match Stdlib min/max", `Quick, test_fmin_fmax_match_stdlib);
    ("basic queries", `Quick, test_basic_queries);
    ("midpoint unbounded", `Quick, test_midpoint_unbounded);
    ("intersect and hull", `Quick, test_intersect_hull);
    ("division across zero", `Quick, test_div_zero_straddle);
    ("even power straddling zero", `Quick, test_pow_even_straddle);
    ("partial functions", `Quick, test_partial_functions);
    QCheck_alcotest.to_alcotest incl_add;
    QCheck_alcotest.to_alcotest incl_sub;
    QCheck_alcotest.to_alcotest incl_mul;
    QCheck_alcotest.to_alcotest incl_div;
    QCheck_alcotest.to_alcotest incl_min;
    QCheck_alcotest.to_alcotest incl_max;
    QCheck_alcotest.to_alcotest incl_unary;
    QCheck_alcotest.to_alcotest incl_inverse;
    QCheck_alcotest.to_alcotest incl_pow_roundtrip;
    QCheck_alcotest.to_alcotest refine_is_subset;
    ("domain constructors", `Quick, test_domain_constructors);
    ("domain queries", `Quick, test_domain_queries);
    ("domain refine", `Quick, test_domain_refine);
    ("relative measure", `Quick, test_relative_measure);
  ]
