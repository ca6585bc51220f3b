(* Tests for Adpm_csp: constraint status semantics, the network store and
   propagation to fixpoint. *)

open Adpm_interval
open Adpm_expr
open Adpm_csp

let v = Expr.var
let c = Expr.const

let status = Alcotest.testable Constr.pp_status ( = )
let dom = Alcotest.testable Domain.pp Domain.equal

(* a propagation outcome's subspace of the named property *)
let feasible_in net outcome name =
  outcome.Propagate.feasible.(Network.prop_id net name)

(* {2 Constr} *)

let mk rel lhs rhs = Constr.make ~id:0 ~name:"c" lhs rel rhs

let test_constr_args () =
  let con = mk Constr.Le Expr.(v "a" + v "b") Expr.(v "b" + v "d") in
  Alcotest.(check (list string)) "dedup order" [ "a"; "b"; "d" ] (Constr.args con)

let test_check_point () =
  let con = mk Constr.Le Expr.(v "x" + c 1.) (c 3.) in
  let env2 = function "x" -> 2. | _ -> nan in
  let env3 = function "x" -> 3. | _ -> nan in
  Alcotest.(check bool) "2+1 <= 3" true (Constr.check_point env2 con);
  Alcotest.(check bool) "3+1 <= 3 fails" false (Constr.check_point env3 con);
  (* equality with tolerance *)
  let eq = mk Constr.Eq (v "x") (c 2.) in
  Alcotest.(check bool) "eq holds" true (Constr.check_point env2 eq);
  Alcotest.(check bool) "eq near-miss with eps" true
    (Constr.check_point ~eps:0.5 env3 (mk Constr.Eq (v "x") (c 2.6)))

let test_status_on_box () =
  let box_env lo hi = function "x" -> Interval.make lo hi | _ -> raise Not_found in
  let con = mk Constr.Le (v "x") (c 5.) in
  Alcotest.(check status) "satisfied" Constr.Satisfied
    (Constr.status_on_box (box_env 0. 5.) con);
  Alcotest.(check status) "violated" Constr.Violated
    (Constr.status_on_box (box_env 6. 7.) con);
  Alcotest.(check status) "consistent" Constr.Consistent
    (Constr.status_on_box (box_env 4. 6.) con);
  (* the default tolerance 1e-9 is inclusive on the satisfied side and
     exclusive on the violated side *)
  let at_eps name expected rel lo hi =
    Alcotest.(check status) name expected
      (Constr.status_on_box (box_env lo hi) (mk rel (v "x") (c 0.)))
  in
  at_eps "le at eps" Constr.Satisfied Constr.Le 1e-9 1e-9;
  at_eps "le from eps" Constr.Consistent Constr.Le 1e-9 1.;
  at_eps "ge at -eps" Constr.Satisfied Constr.Ge (-1e-9) (-1e-9);
  at_eps "ge to -eps" Constr.Consistent Constr.Ge (-1.) (-1e-9);
  at_eps "eq within eps" Constr.Satisfied Constr.Eq (-1e-9) 1e-9;
  at_eps "eq from eps" Constr.Consistent Constr.Eq 1e-9 1.;
  (* undefined everywhere => violated *)
  let sqrt_con = mk Constr.Ge (Expr.Sqrt (v "x")) (c 0.) in
  Alcotest.(check status) "undefined is violated" Constr.Violated
    (Constr.status_on_box (box_env (-4.) (-1.)) sqrt_con)

let test_eq_status () =
  let box_env lo hi = function "x" -> Interval.make lo hi | _ -> raise Not_found in
  let eq = mk Constr.Eq (v "x") (c 2.) in
  Alcotest.(check status) "point eq satisfied" Constr.Satisfied
    (Constr.status_on_box (box_env 2. 2.) eq);
  Alcotest.(check status) "range eq consistent" Constr.Consistent
    (Constr.status_on_box (box_env 1. 3.) eq);
  Alcotest.(check status) "disjoint eq violated" Constr.Violated
    (Constr.status_on_box (box_env 3. 4.) eq)

(* {2 Network} *)

let small_net () =
  let net = Network.create () in
  Network.add_prop net "x" (Domain.continuous 0. 10.);
  Network.add_prop net "y" (Domain.continuous 0. 10.);
  Network.add_prop net "lvl" (Domain.symbolic [ "hi"; "lo" ]);
  let c1 = Network.add_constraint net ~name:"sum" Expr.(v "x" + v "y") Constr.Le (c 12.) in
  let c2 = Network.add_constraint net ~name:"xmin" (v "x") Constr.Ge (c 2.) in
  (net, c1, c2)

let test_network_basics () =
  let net, c1, c2 = small_net () in
  Alcotest.(check (list string)) "prop order" [ "x"; "y"; "lvl" ]
    (Network.prop_names net);
  Alcotest.(check int) "constraint count" 2 (Network.constraint_count net);
  Alcotest.(check int) "beta x" 2 (Network.beta net "x");
  Alcotest.(check int) "beta y" 1 (Network.beta net "y");
  Alcotest.(check bool) "adjacency" true
    (List.exists (fun cc -> cc.Constr.id = c1.Constr.id) (Network.constraints_of_prop net "x"));
  Alcotest.(check bool) "c2 touches only x" true
    (Network.constraints_of_prop net "y"
    |> List.for_all (fun cc -> cc.Constr.id <> c2.Constr.id))

let test_network_validation () =
  let net, _, _ = small_net () in
  Alcotest.(check bool) "duplicate prop rejected" true
    (try
       Network.add_prop net "x" (Domain.continuous 0. 1.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown constraint prop rejected" true
    (try
       ignore (Network.add_constraint net ~name:"bad" (v "zz") Constr.Le (c 0.));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "symbolic prop in constraint rejected" true
    (try
       ignore (Network.add_constraint net ~name:"bad" (v "lvl") Constr.Le (c 0.));
       false
     with Invalid_argument _ -> true)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_msg name expected f =
  match f () with
  | () -> Alcotest.failf "%s: expected an exception" name
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S appears in %S" name expected msg)
      true (contains msg expected)

let test_network_error_messages () =
  (* Lookup failures must name the missing entity, not just its kind:
     these messages are what a scenario author sees when a DDDL model
     references a property that was never declared. *)
  let net, _, _ = small_net () in
  check_msg "find_prop" "unknown property 'ghost'" (fun () ->
      ignore (Network.find_prop net "ghost"));
  check_msg "find_prop names the function" "Network.find_prop" (fun () ->
      ignore (Network.find_prop net "ghost"));
  check_msg "prop_id" "unknown property 'ghost'" (fun () ->
      ignore (Network.prop_id net "ghost"));
  check_msg "find_constraint" "unknown constraint id 99" (fun () ->
      ignore (Network.find_constraint net 99));
  check_msg "constraints_of_prop" "unknown property 'ghost'" (fun () ->
      ignore (Network.constraints_of_prop net "ghost"))

let test_constr_args_memoized () =
  let con =
    mk Constr.Le Expr.(v "a" + (v "b" * v "a")) Expr.(v "b" + v "d")
  in
  let first = Constr.args con in
  Alcotest.(check (list string))
    "dedup'd lhs-then-rhs walk" [ "a"; "b"; "d" ] first;
  (* memoized: repeated calls return the same list physically *)
  Alcotest.(check bool) "same list physically" true (first == Constr.args con);
  Alcotest.(check (list string))
    "content stable across calls" [ "a"; "b"; "d" ] (Constr.args con)

let test_network_constraints_cached () =
  let net, c1, c2 = small_net () in
  let first = Network.constraints net in
  Alcotest.(check bool) "repeated call is physically equal" true
    (first == Network.constraints net);
  Alcotest.(check (list int)) "insertion order"
    [ c1.Constr.id; c2.Constr.id ]
    (List.map (fun cc -> cc.Constr.id) first);
  (* structural change invalidates: the cache must not serve a stale
     list that misses the new constraint *)
  let c3 = Network.add_constraint net ~name:"ymax" (v "y") Constr.Le (c 5.) in
  let after = Network.constraints net in
  Alcotest.(check bool) "add_constraint invalidates" true (first != after);
  Alcotest.(check (list int)) "new constraint present"
    [ c1.Constr.id; c2.Constr.id; c3.Constr.id ]
    (List.map (fun cc -> cc.Constr.id) after);
  Alcotest.(check bool) "fresh list cached again" true
    (after == Network.constraints net);
  (* adding a property also bumps the structural revision *)
  Network.add_prop net "z" (Domain.continuous 0. 1.);
  Alcotest.(check bool) "add_prop invalidates too" true
    (after != Network.constraints net)

let test_flat_views_dense () =
  let net, c1, c2 = small_net () in
  let carr = Network.constraint_array net in
  Alcotest.(check int) "constraint_array dense" 2 (Array.length carr);
  Alcotest.(check int) "slot 0 is its id" c1.Constr.id carr.(0).Constr.id;
  Alcotest.(check int) "slot 1 is its id" c2.Constr.id carr.(1).Constr.id;
  let adj = Network.adjacency net in
  let get = Bigarray.Array1.get and first = adj.Network.adj_first in
  Alcotest.(check int) "one row per prop" (Network.prop_count net + 1)
    (Bigarray.Array1.dim first);
  let row pid =
    List.init
      (Int32.to_int (get first (pid + 1)) - Int32.to_int (get first pid))
      (fun i -> Int32.to_int (get adj.Network.adj_cids (Int32.to_int (get first pid) + i)))
  in
  Alcotest.(check (list int)) "x row, insertion order"
    [ c1.Constr.id; c2.Constr.id ]
    (row (Network.prop_id net "x"));
  Alcotest.(check (list int)) "y row" [ c1.Constr.id ] (row (Network.prop_id net "y"))

let test_network_assign () =
  let net, _, _ = small_net () in
  Network.assign net "x" (Value.Num 3.);
  Alcotest.(check (option (float 0.))) "assigned" (Some 3.)
    (Network.assigned_num net "x");
  Alcotest.(check bool) "bound" true (Network.is_bound net "x");
  Network.unassign net "x";
  Alcotest.(check bool) "unbound" false (Network.is_bound net "x");
  Alcotest.(check bool) "out of range rejected" true
    (try
       Network.assign net "x" (Value.Num 99.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "kind mismatch rejected" true
    (try
       Network.assign net "x" (Value.Sym "hi");
       false
     with Invalid_argument _ -> true);
  Network.assign net "lvl" (Value.Sym "hi");
  Alcotest.(check bool) "symbolic assign ok" true (Network.is_bound net "lvl")

let test_network_alpha_status () =
  let net, c1, c2 = small_net () in
  Network.set_status net c1.Constr.id Constr.Violated;
  Alcotest.(check int) "alpha x" 1 (Network.alpha net "x");
  Alcotest.(check int) "alpha y" 1 (Network.alpha net "y");
  Network.set_status net c2.Constr.id Constr.Violated;
  Alcotest.(check int) "alpha x both" 2 (Network.alpha net "x")

let test_network_solved () =
  let net, _, _ = small_net () in
  Alcotest.(check bool) "not solved unbound" false (Network.solved net);
  Network.assign net "x" (Value.Num 3.);
  Network.assign net "y" (Value.Num 4.);
  Alcotest.(check bool) "solved (symbolic prop ignored)" true (Network.solved net);
  Network.assign net "x" (Value.Num 1.);
  Alcotest.(check bool) "violated xmin" false (Network.solved net)

let test_helps_direction () =
  let net, c1, c2 = small_net () in
  Alcotest.(check bool) "sum: decreasing x helps" true
    (Network.helps_direction net c1 "x" = `Down);
  Alcotest.(check bool) "xmin: increasing x helps" true
    (Network.helps_direction net c2 "x" = `Up);
  (* a declared override wins *)
  Network.declare_monotone net c1.Constr.id "x" Adpm_expr.Monotone.Decreasing;
  Alcotest.(check bool) "declared override" true
    (Network.helps_direction net c1 "x" = `Up)

(* {2 Propagate} *)

let test_propagate_narrows () =
  let net, c1, _ = small_net () in
  Network.assign net "y" (Value.Num 8.);
  let outcome = Propagate.run net in
  let x_feasible = feasible_in net outcome "x" in
  (* x + 8 <= 12 -> x <= 4; x >= 2 *)
  (match Domain.hull x_feasible with
  | Some iv ->
    Alcotest.(check bool) "x in [2,4]" true
      (Interval.lo iv >= 1.99 && Interval.hi iv <= 4.01)
  | None -> Alcotest.fail "x should have a hull");
  Alcotest.(check bool) "statuses computed" true
    (c1.Constr.id < Array.length outcome.Propagate.statuses);
  Alcotest.(check bool) "evaluations counted" true (outcome.Propagate.evaluations > 0);
  Alcotest.(check bool) "fixpoint" true outcome.Propagate.fixpoint

let test_propagate_detects_violation () =
  let net, c1, c2 = small_net () in
  Network.assign net "x" (Value.Num 1.);
  Propagate.apply net (Propagate.run net);
  Alcotest.(check status) "xmin violated" Constr.Violated
    (Network.status net c2.Constr.id);
  ignore c1

let test_propagate_pure_until_applied () =
  let net, _, _ = small_net () in
  let before = Network.feasible net "x" in
  let outcome = Propagate.run net in
  Alcotest.(check dom) "network untouched by run" before (Network.feasible net "x");
  Propagate.apply net outcome;
  Alcotest.(check bool) "applied" true
    (not (Domain.equal before (Network.feasible net "x"))
    || Network.status net 0 <> Constr.Consistent
    || true)

let test_propagate_idempotent () =
  let net, _, _ = small_net () in
  Network.assign net "y" (Value.Num 8.);
  let o1 = Propagate.run net in
  Propagate.apply net o1;
  let o2 = Propagate.run net in
  Array.iteri
    (fun pid d1 ->
      Alcotest.(check dom)
        ("fixpoint stable for " ^ (Network.prop_by_id net pid).Network.p_name)
        d1 o2.Propagate.feasible.(pid))
    o1.Propagate.feasible

let test_propagate_budget () =
  let net, _, _ = small_net () in
  let outcome = Propagate.run ~max_revisions:1 net in
  Alcotest.(check bool) "budget respected" true
    (outcome.Propagate.evaluations <= 1 + Network.constraint_count net)

let test_relaxed_feasible () =
  let net, _, _ = small_net () in
  Network.assign net "x" (Value.Num 3.);
  Network.assign net "y" (Value.Num 8.);
  let d, evals = Propagate.relaxed_feasible_group net ~target:"x" ~unpin:[] in
  (match Domain.hull d with
  | Some iv ->
    Alcotest.(check bool) "window [2,4]" true
      (Interval.lo iv >= 1.99 && Interval.hi iv <= 4.01)
  | None -> Alcotest.fail "expected window");
  Alcotest.(check bool) "evals counted" true (evals > 0);
  (* original assignment untouched *)
  Alcotest.(check (option (float 0.))) "x still 3" (Some 3.)
    (Network.assigned_num net "x")

(* Regression: [significantly_narrower] used to compare only interval
   widths, so a bound move between two infinite-width boxes
   ([-inf,+inf] -> [0,+inf]) never requeued neighbours and half-infinite
   chains stopped propagating. Constraint order matters: the chain links
   are revised (uselessly) before the anchor that feeds them, so reaching
   the fixpoint depends on the requeue. *)
let test_half_infinite_chain () =
  let net = Network.create () in
  Network.add_prop net "x0" (Domain.continuous neg_infinity infinity);
  Network.add_prop net "x1" (Domain.continuous neg_infinity infinity);
  Network.add_prop net "x2" (Domain.continuous neg_infinity infinity);
  ignore (Network.add_constraint net ~name:"c01" (v "x1") Constr.Ge (v "x0"));
  ignore (Network.add_constraint net ~name:"c12" (v "x2") Constr.Ge (v "x1"));
  ignore (Network.add_constraint net ~name:"anchor" (v "x0") Constr.Ge (c 0.));
  let outcome = Propagate.run net in
  let lo name =
    match Domain.hull (feasible_in net outcome name) with
    | Some iv -> Interval.lo iv
    | None -> Alcotest.fail (name ^ " wiped out")
  in
  let near_zero label x =
    Alcotest.(check bool) label true (Float.abs x <= 1e-6)
  in
  near_zero "anchor narrows x0" (lo "x0");
  near_zero "x1 >= 0 via requeue" (lo "x1");
  near_zero "x2 >= 0 via requeue" (lo "x2");
  Alcotest.(check bool) "fixpoint reached" true outcome.Propagate.fixpoint

(* {2 Incremental propagation} *)

let check_outcomes_equal label (full : Propagate.outcome)
    (incr : Propagate.outcome) =
  Array.iteri
    (fun pid d ->
      Alcotest.(check dom)
        (Printf.sprintf "%s: feasible of property %d" label pid)
        d incr.Propagate.feasible.(pid))
    full.Propagate.feasible;
  Array.iteri
    (fun cid s ->
      Alcotest.(check status)
        (Printf.sprintf "%s: status of constraint %d" label cid)
        s incr.Propagate.statuses.(cid))
    full.Propagate.statuses

(* Run an incremental propagation under a memory tracer and return the
   outcome plus the engine label the Propagation_finished event reported
   ("incremental" for a dirty-seeded restart, "full" for a fallback). *)
let traced_incremental net =
  let open Adpm_trace in
  let buffer, sink = Sink.collector () in
  let tracer = Tracer.create sink in
  let outcome = Propagate.run_incremental_and_apply ~tracer net in
  let engine =
    List.fold_left
      (fun acc stamped ->
        match stamped.Event.event with
        | Event.Propagation_finished { engine; _ } -> Some engine
        | _ -> acc)
      None (Sink.Collect.contents buffer)
  in
  (outcome, engine)

let test_incremental_matches_full_after_assign () =
  let net, _, _ = small_net () in
  ignore (Propagate.run_incremental_and_apply net);
  Network.assign net "y" (Value.Num 8.);
  let incr, engine = traced_incremental net in
  Alcotest.(check (option string)) "dirty-seeded restart used"
    (Some "incremental") engine;
  let net2, _, _ = small_net () in
  Network.assign net2 "y" (Value.Num 8.);
  let full = Propagate.run net2 in
  check_outcomes_equal "after assign" full incr

let test_incremental_fallback_on_unassign () =
  let net, _, _ = small_net () in
  Network.assign net "x" (Value.Num 9.);
  ignore (Propagate.run_incremental_and_apply net);
  Network.unassign net "x";
  let incr, engine = traced_incremental net in
  Alcotest.(check (option string)) "widening falls back to full"
    (Some "full") engine;
  let net2, _, _ = small_net () in
  let full = Propagate.run net2 in
  check_outcomes_equal "after unassign" full incr

let test_incremental_invalidated_by_add_constraint () =
  let net, _, _ = small_net () in
  ignore (Propagate.run_incremental_and_apply net);
  Alcotest.(check bool) "store persisted" true
    (Network.prop_state net <> None);
  let _c3 = Network.add_constraint net ~name:"ymax" (v "y") Constr.Le (c 5.) in
  Alcotest.(check bool) "structural change invalidates the store" true
    (Network.prop_state net = None);
  let incr, engine = traced_incremental net in
  Alcotest.(check (option string)) "restart is from scratch" (Some "full")
    engine;
  let net2, _, _ = small_net () in
  ignore (Network.add_constraint net2 ~name:"ymax" (v "y") Constr.Le (c 5.));
  let full = Propagate.run net2 in
  check_outcomes_equal "after add_constraint" full incr

(* Propagation soundness: every ground solution survives propagation. *)
let propagate_preserves_solutions =
  QCheck.Test.make ~name:"propagation preserves ground solutions" ~count:200
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "x=%g y=%g" a b)
       QCheck.Gen.(
         let* a = float_range 2. 10. in
         let* b = float_range 0. 10. in
         return (a, b)))
    (fun (x, y) ->
      QCheck.assume (x +. y <= 12.);
      let net, _, _ = small_net () in
      let outcome = Propagate.run net in
      let ok name value =
        match Domain.hull (feasible_in net outcome name) with
        | Some iv -> Interval.mem value (Iv_tol.inflate 1e-6 iv)
        | None -> false
      in
      ok "x" x && ok "y" y)

(* Propagation monotonicity: committing an assignment can only shrink the
   other properties' feasible subspaces. *)
let propagation_monotone =
  QCheck.Test.make ~name:"assignments only shrink feasible subspaces" ~count:100
    (QCheck.make ~print:string_of_float QCheck.Gen.(float_range 2. 10.))
    (fun x_value ->
      let net1, _, _ = small_net () in
      let before = Propagate.run net1 in
      let net2, _, _ = small_net () in
      Network.assign net2 "x" (Value.Num x_value);
      let after = Propagate.run net2 in
      let hull_of outcome name = Domain.hull (feasible_in net1 outcome name) in
      match (hull_of before "y", hull_of after "y") with
      | Some b, Some a -> Iv_tol.subset a (Iv_tol.inflate 1e-9 b)
      | Some _, None -> true (* wiped out: trivially a subset *)
      | None, _ -> false)

let suite =
  [
    ("constraint args", `Quick, test_constr_args);
    ("check point", `Quick, test_check_point);
    ("status on box", `Quick, test_status_on_box);
    ("equality status", `Quick, test_eq_status);
    ("network basics", `Quick, test_network_basics);
    ("network validation", `Quick, test_network_validation);
    ("lookup errors name the entity", `Quick, test_network_error_messages);
    ("constraint args memoized", `Quick, test_constr_args_memoized);
    ("constraints list cached on revision", `Quick,
     test_network_constraints_cached);
    ("flat views are dense and ordered", `Quick, test_flat_views_dense);
    ("network assignment", `Quick, test_network_assign);
    ("network alpha/status", `Quick, test_network_alpha_status);
    ("network solved", `Quick, test_network_solved);
    ("helps direction", `Quick, test_helps_direction);
    ("propagation narrows", `Quick, test_propagate_narrows);
    ("propagation detects violations", `Quick, test_propagate_detects_violation);
    ("propagation pure until applied", `Quick, test_propagate_pure_until_applied);
    ("propagation idempotent at fixpoint", `Quick, test_propagate_idempotent);
    ("propagation revision budget", `Quick, test_propagate_budget);
    ("relaxed feasibility", `Quick, test_relaxed_feasible);
    ("half-infinite chain propagates", `Quick, test_half_infinite_chain);
    ("incremental = full after assign", `Quick,
     test_incremental_matches_full_after_assign);
    ("incremental falls back on unassign", `Quick,
     test_incremental_fallback_on_unassign);
    ("incremental store invalidated by add_constraint", `Quick,
     test_incremental_invalidated_by_add_constraint);
    QCheck_alcotest.to_alcotest propagate_preserves_solutions;
    QCheck_alcotest.to_alcotest propagation_monotone;
  ]
