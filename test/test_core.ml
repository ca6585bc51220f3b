(* Tests for Adpm_core: design objects, problems, the DPM transition
   function in both modes (status freshness, verification eligibility,
   cross-subsystem detection, spins), heuristic-support mining, the
   notification manager, and the browser renderings. *)

open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core

let v = Expr.var
let c = Expr.const
let status = Alcotest.testable Constr.pp_status ( = )

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* {2 Design_object} *)

let test_object_versioning () =
  let o = Design_object.make ~name:"o" ~properties:[ "a"; "b" ] in
  Alcotest.(check string) "initial" "1.0.0" (Design_object.version_string o);
  Design_object.bump_patch o;
  Alcotest.(check string) "patch" "1.0.1" (Design_object.version_string o);
  Alcotest.(check bool) "owns" true (Design_object.owns o "a");
  Alcotest.(check bool) "not owns" false (Design_object.owns o "z")

(* {2 Problem} *)

let test_problem_links () =
  let parent = Problem.make ~id:0 ~name:"top" ~owner:"lead" () in
  let child = Problem.make ~id:1 ~name:"sub" ~owner:"des" ~outputs:[ "x" ] () in
  Problem.link_child ~parent ~child;
  Alcotest.(check (list int)) "children" [ 1 ] parent.Problem.pr_children;
  Alcotest.(check (option int)) "parent" (Some 0) child.Problem.pr_parent;
  Alcotest.(check bool) "leaf" true (Problem.is_leaf child);
  Alcotest.(check bool) "not leaf" false (Problem.is_leaf parent);
  Problem.add_dependency child 5;
  Problem.add_dependency child 5;
  Alcotest.(check (list int)) "dependency dedup" [ 5 ] child.Problem.pr_depends_on

let test_problem_properties () =
  let p = Problem.make ~id:0 ~name:"p" ~owner:"o" ~inputs:[ "a"; "b" ]
      ~outputs:[ "b"; "c" ] () in
  Alcotest.(check (list string)) "inputs then new outputs" [ "a"; "b"; "c" ]
    (Problem.properties p)

(* {2 A two-subsystem fixture} *)

(* system: leader owns the cross constraint xa + xb <= budget;
   alice owns A (output xa), bob owns B (output xb). *)
let fixture mode =
  let net = Network.create () in
  Network.add_prop net "xa" (Domain.continuous 0. 10.);
  Network.add_prop net "xb" (Domain.continuous 0. 10.);
  Network.add_prop net "budget" (Domain.continuous 1. 20.);
  let c_cross =
    Network.add_constraint net ~name:"cross" Expr.(v "xa" + v "xb") Constr.Le
      (v "budget")
  in
  let c_a = Network.add_constraint net ~name:"amin" (v "xa") Constr.Ge (c 1.) in
  let c_b = Network.add_constraint net ~name:"bmin" (v "xb") Constr.Ge (c 1.) in
  Network.assign net "budget" (Value.Num 10.);
  let objects =
    [
      Design_object.make ~name:"A" ~properties:[ "xa" ];
      Design_object.make ~name:"B" ~properties:[ "xb" ];
    ]
  in
  let top =
    Problem.make ~id:0 ~name:"system" ~owner:"leader" ~inputs:[ "budget" ]
      ~constraints:[ c_cross.Constr.id ] ()
  in
  let dpm = Dpm.create ~mode net ~objects ~top in
  let pa =
    Problem.make ~id:1 ~name:"A" ~owner:"alice" ~outputs:[ "xa" ]
      ~constraints:[ c_a.Constr.id ] ~object_name:"A" ()
  in
  let pb =
    Problem.make ~id:2 ~name:"B" ~owner:"bob" ~outputs:[ "xb" ]
      ~constraints:[ c_b.Constr.id ] ~object_name:"B" ()
  in
  Dpm.register_problem dpm ~parent:(Some 0) pa;
  Dpm.register_problem dpm ~parent:(Some 0) pb;
  (dpm, c_cross, c_a, c_b)

let synth designer problem bindings =
  Operator.synthesis ~designer ~problem
    (List.map (fun (p, x) -> (p, Value.Num x)) bindings)

(* {2 DPM structure} *)

let test_dpm_accessors () =
  let dpm, _, _, _ = fixture Dpm.Adpm in
  Alcotest.(check (list string)) "designers in order" [ "leader"; "alice"; "bob" ]
    (Dpm.designers dpm);
  Alcotest.(check int) "three problems" 3 (List.length (Dpm.problems dpm));
  Alcotest.(check int) "alice owns one" 1
    (List.length (Dpm.problems_owned_by dpm "alice"));
  Alcotest.(check bool) "object lookup" true (Dpm.find_object dpm "A" <> None);
  Alcotest.(check int) "fresh id" 3 (Dpm.fresh_problem_id dpm)

let test_subsystems_and_cross () =
  let dpm, c_cross, c_a, _ = fixture Dpm.Adpm in
  Alcotest.(check bool) "cross constraint" true (Dpm.is_cross_subsystem dpm c_cross);
  Alcotest.(check bool) "internal constraint" false (Dpm.is_cross_subsystem dpm c_a)

let test_synthesis_validation () =
  let dpm, _, _, _ = fixture Dpm.Adpm in
  Alcotest.(check bool) "assigning a non-output fails" true
    (try
       ignore (Dpm.apply dpm (synth "alice" 1 [ ("xb", 2.) ]));
       false
     with Invalid_argument _ -> true)

(* Every malformed operation is refused before the transition mutates
   anything: the operation counter, the network (revision and
   assignments), the evaluation count and the trace are as
   they were. *)
let test_malformed_ops_change_nothing () =
  let open Adpm_trace in
  List.iter
    (fun mode ->
      let dpm = Adpm_scenarios.Sensor.scenario.Adpm_teamsim.Scenario.sc_build ~mode in
      let buf, sink = Sink.collector () in
      Dpm.set_tracer dpm (Tracer.create sink);
      let net = Dpm.network dpm in
      ignore (Dpm.apply dpm (synth "mems" 1 [ ("gap", 2.) ]));
      let state () =
        ( Dpm.op_count dpm,
          Network.revision net,
          List.map (fun n -> (n, Network.assigned net n)) (Network.prop_names net),
          Dpm.eval_count dpm,
          Sink.Collect.length buf )
      in
      let before = state () in
      let n = Network.constraint_count net in
      let spec name ?(outputs = []) ?(constraints = []) ?(after = []) () =
        {
          Operator.sp_name = name;
          sp_owner = "mems";
          sp_inputs = [];
          sp_outputs = outputs;
          sp_constraints = constraints;
          sp_depends_on_names = after;
          sp_object = None;
        }
      in
      let malformed =
        [
          ("unknown problem", synth "mems" 42 [ ("radius", 500.) ]);
          ( "second assignment not owned",
            synth "mems" 1 [ ("radius", 500.); ("amp-gain", 10.) ] );
          ("unknown property", synth "mems" 1 [ ("radius", 500.); ("nosuch", 1.) ]);
          ("out of range", synth "mems" 1 [ ("radius", 500.); ("gap", 99.) ]);
          ( "kind mismatch",
            Operator.synthesis ~designer:"mems" ~problem:1
              [ ("radius", Value.Num 500.); ("gap", Value.Sym "wide") ] );
          ( "unknown verification id",
            Operator.verification ~designer:"mems" ~problem:1 [ 0; n ] );
          ( "negative verification id",
            Operator.verification ~designer:"mems" ~problem:1 [ -1 ] );
          ( "unknown motivating id",
            synth "mems" 1 [ ("radius", 500.) ] |> fun op ->
            { op with Operator.op_motivated_by = [ 0; n + 3 ] } );
          ( "unknown sibling",
            Operator.decompose ~designer:"mems" ~problem:1
              [ spec "a" (); spec "b" ~after:[ "c" ] () ] );
          ( "unknown subproblem constraint",
            Operator.decompose ~designer:"mems" ~problem:1
              [ spec "a" ~constraints:[ n ] () ] );
          ( "unknown subproblem output",
            Operator.decompose ~designer:"mems" ~problem:1
              [ spec "a" ~outputs:[ "nosuch" ] () ] );
        ]
      in
      List.iter
        (fun (label, op) ->
          (match Dpm.apply dpm op with
          | _ -> Alcotest.failf "%s: accepted" label
          | exception Invalid_argument _ -> ());
          if state () <> before then Alcotest.failf "%s: state changed" label)
        malformed;
      Alcotest.(check int) "problems unchanged" 3 (List.length (Dpm.problems dpm));
      (* the DPM is still usable, and the next operation is index 2 *)
      let r = Dpm.apply dpm (synth "mems" 1 [ ("radius", 500.) ]) in
      Alcotest.(check int) "next index" 2 r.Dpm.r_index)
    [ Dpm.Conventional; Dpm.Adpm ]

(* {2 ADPM mode semantics} *)

let test_adpm_propagation_after_synthesis () =
  let dpm, _, _, c_b = fixture Dpm.Adpm in
  let r = Dpm.apply dpm (synth "alice" 1 [ ("xa", 9.5) ]) in
  Alcotest.(check bool) "evaluations charged" true (r.Dpm.r_evaluations > 0);
  (* xa = 9.5 narrows xb to <= 0.5 through the cross budget, which makes
     bmin (xb >= 1) certainly violated: the conflict is detected before bob
     binds anything *)
  Alcotest.(check status) "conflict detected early" Constr.Violated
    (Dpm.known_status dpm c_b.Constr.id);
  Alcotest.(check bool) "bmin in newly violated" true
    (List.mem c_b.Constr.id r.Dpm.r_newly_violated)

let test_adpm_object_version_bumped () =
  let dpm, _, _, _ = fixture Dpm.Adpm in
  ignore (Dpm.apply dpm (synth "alice" 1 [ ("xa", 4.) ]));
  match Dpm.find_object dpm "A" with
  | Some o ->
    Alcotest.(check string) "patch bumped" "1.0.1" (Design_object.version_string o)
  | None -> Alcotest.fail "object A"

let test_adpm_solved () =
  let dpm, _, _, _ = fixture Dpm.Adpm in
  ignore (Dpm.apply dpm (synth "alice" 1 [ ("xa", 4.) ]));
  Alcotest.(check bool) "not solved yet" false (Dpm.solved dpm);
  ignore (Dpm.apply dpm (synth "bob" 2 [ ("xb", 5.) ]));
  Alcotest.(check bool) "solved" true (Dpm.solved dpm);
  Alcotest.(check bool) "ground truth agrees" true (Dpm.ground_truth_solved dpm)

let test_adpm_notifications_routed () =
  let dpm, _, _, _ = fixture Dpm.Adpm in
  let r = Dpm.apply dpm (synth "alice" 1 [ ("xa", 9.5) ]) in
  (* bob must hear about the cross violation / window reductions *)
  Alcotest.(check bool) "bob notified" true
    (List.exists
       (fun n -> String.equal n.Notify.n_recipient "bob")
       r.Dpm.r_notifications)

let test_relaxed_feasible_mode_gate () =
  let dpm, _, _, _ = fixture Dpm.Conventional in
  Alcotest.(check bool) "conventional mode rejects" true
    (try
       ignore (Dpm.relaxed_feasible dpm "xa");
       false
     with Invalid_argument _ -> true)

(* Regression: ADPM verifications used the conventional eligibility rules
   to compute [r_skipped], so a constraint that propagation had just kept
   fresh could be reported skipped *and* point-checked in the same
   operation. Skipped must be the exact complement of the checked set. *)
let test_adpm_skipped_disjoint_from_checked () =
  let dpm, c_cross, c_a, _ = fixture Dpm.Adpm in
  ignore (Dpm.apply dpm (synth "alice" 1 [ ("xa", 4.) ]));
  (* xb unbound: cross cannot be point-checked; amin can *)
  let r =
    Dpm.apply dpm
      (Operator.verification ~designer:"leader" ~problem:0
         [ c_a.Constr.id; c_cross.Constr.id ])
  in
  Alcotest.(check (list int)) "only cross skipped" [ c_cross.Constr.id ]
    r.Dpm.r_skipped;
  Alcotest.(check bool) "checked constraint not reported skipped" true
    (not (List.mem c_a.Constr.id r.Dpm.r_skipped));
  Alcotest.(check int) "exactly the bound constraint evaluated" 1
    r.Dpm.r_evaluations;
  Alcotest.(check status) "amin point-checked satisfied" Constr.Satisfied
    (Dpm.known_status dpm c_a.Constr.id)

(* Regression: [Dpm.designers] accumulated with [acc @ [o]] (quadratic) —
   the rewrite must still return owners in first-seen problem order,
   without duplicates. *)
let test_designers_first_seen_order () =
  let dpm, _, _, _ = fixture Dpm.Adpm in
  let extra id name owner =
    Dpm.register_problem dpm ~parent:(Some 0)
      (Problem.make ~id ~name ~owner ())
  in
  extra 3 "A2" "alice";
  extra 4 "C" "carol";
  extra 5 "B2" "bob";
  Alcotest.(check (list string)) "first-seen order, deduplicated"
    [ "leader"; "alice"; "bob"; "carol" ]
    (Dpm.designers dpm)

(* {2 Conventional mode semantics} *)

let test_conventional_no_propagation () =
  let dpm, c_cross, _, _ = fixture Dpm.Conventional in
  let r = Dpm.apply dpm (synth "alice" 1 [ ("xa", 9.5) ]) in
  Alcotest.(check int) "no evaluations" 0 r.Dpm.r_evaluations;
  Alcotest.(check status) "no knowledge of conflict" Constr.Consistent
    (Dpm.known_status dpm c_cross.Constr.id);
  (* feasible subspaces stay at the initial ranges *)
  Alcotest.(check bool) "no feasibility info" true
    (Domain.equal
       (Network.feasible (Dpm.network dpm) "xb")
       (Network.initial_domain (Dpm.network dpm) "xb"))

let test_conventional_verification_and_staleness () =
  let dpm, _, c_a, _ = fixture Dpm.Conventional in
  ignore (Dpm.apply dpm (synth "alice" 1 [ ("xa", 0.5) ]));
  (* eligible: amin has bound args and was never verified *)
  let eligible = Dpm.eligible_verifications dpm ~designer:"alice" in
  Alcotest.(check (list int)) "amin eligible" [ c_a.Constr.id ] eligible;
  let r =
    Dpm.apply dpm
      (Operator.verification ~designer:"alice" ~problem:1 [ c_a.Constr.id ])
  in
  Alcotest.(check int) "one evaluation" 1 r.Dpm.r_evaluations;
  Alcotest.(check status) "violation found" Constr.Violated
    (Dpm.known_status dpm c_a.Constr.id);
  (* repair makes the verified status stale *)
  ignore (Dpm.apply dpm (synth "alice" 1 [ ("xa", 2.) ]));
  Alcotest.(check status) "stale after reassignment" Constr.Consistent
    (Dpm.known_status dpm c_a.Constr.id);
  Alcotest.(check bool) "re-verification eligible" true
    (List.mem c_a.Constr.id (Dpm.eligible_verifications dpm ~designer:"alice"))

let test_conventional_cross_rule () =
  let dpm, c_cross, c_a, c_b = fixture Dpm.Conventional in
  ignore (Dpm.apply dpm (synth "alice" 1 [ ("xa", 6.) ]));
  ignore (Dpm.apply dpm (synth "bob" 2 [ ("xb", 6.) ]));
  (* both args bound, but subproblems are not Solved yet: cross blocked *)
  Alcotest.(check (list int)) "cross not yet eligible" []
    (Dpm.eligible_verifications dpm ~designer:"leader");
  ignore
    (Dpm.apply dpm (Operator.verification ~designer:"alice" ~problem:1 [ c_a.Constr.id ]));
  ignore
    (Dpm.apply dpm (Operator.verification ~designer:"bob" ~problem:2 [ c_b.Constr.id ]));
  Alcotest.(check (list int)) "cross now eligible" [ c_cross.Constr.id ]
    (Dpm.eligible_verifications dpm ~designer:"leader");
  (* the integration check finds the conflict: 6 + 6 > 10 *)
  let r =
    Dpm.apply dpm
      (Operator.verification ~designer:"leader" ~problem:0 [ c_cross.Constr.id ])
  in
  Alcotest.(check (list int)) "conflict at integration" [ c_cross.Constr.id ]
    r.Dpm.r_newly_violated

let test_conventional_skipped_verifications () =
  let dpm, c_cross, _, _ = fixture Dpm.Conventional in
  (* xa unbound: the verification request is filtered *)
  let r =
    Dpm.apply dpm
      (Operator.verification ~designer:"leader" ~problem:0 [ c_cross.Constr.id ])
  in
  Alcotest.(check (list int)) "skipped" [ c_cross.Constr.id ] r.Dpm.r_skipped;
  Alcotest.(check int) "no evaluations" 0 r.Dpm.r_evaluations

let test_spin_counting () =
  let dpm, c_cross, c_a, c_b = fixture Dpm.Conventional in
  ignore (Dpm.apply dpm (synth "alice" 1 [ ("xa", 6.) ]));
  ignore (Dpm.apply dpm (synth "bob" 2 [ ("xb", 6.) ]));
  ignore (Dpm.apply dpm (Operator.verification ~designer:"alice" ~problem:1 [ c_a.Constr.id ]));
  ignore (Dpm.apply dpm (Operator.verification ~designer:"bob" ~problem:2 [ c_b.Constr.id ]));
  ignore (Dpm.apply dpm (Operator.verification ~designer:"leader" ~problem:0 [ c_cross.Constr.id ]));
  Alcotest.(check int) "no spins yet" 0 (Dpm.spin_count dpm);
  (* the repair reacting to the cross violation at integration is a spin *)
  let r =
    Dpm.apply dpm
      (Operator.synthesis ~designer:"alice" ~problem:1
         ~motivated_by:[ c_cross.Constr.id ]
         [ ("xa", Value.Num 3.) ])
  in
  Alcotest.(check bool) "spin" true r.Dpm.r_spin;
  Alcotest.(check int) "spin counted" 1 (Dpm.spin_count dpm);
  (* a repair for an internal violation is not a spin *)
  let r2 =
    Dpm.apply dpm
      (Operator.synthesis ~designer:"alice" ~problem:1
         ~motivated_by:[ c_a.Constr.id ]
         [ ("xa", Value.Num 4.) ])
  in
  Alcotest.(check bool) "not a spin" false r2.Dpm.r_spin

let test_spin_requires_integration_level () =
  let dpm, c_cross, _, _ = fixture Dpm.Adpm in
  (* xa bound, xb not: an early cross-violation repair is not a spin *)
  ignore (Dpm.apply dpm (synth "alice" 1 [ ("xa", 9.5) ]));
  let r =
    Dpm.apply dpm
      (Operator.synthesis ~designer:"alice" ~problem:1
         ~motivated_by:[ c_cross.Constr.id ]
         [ ("xa", Value.Num 5.) ])
  in
  Alcotest.(check bool) "early correction, not a spin" false r.Dpm.r_spin

let test_decompose_operation () =
  let net = Network.create () in
  Network.add_prop net "x" (Domain.continuous 0. 1.);
  let top = Problem.make ~id:0 ~name:"top" ~owner:"leader" () in
  let dpm = Dpm.create ~mode:Dpm.Adpm net ~objects:[] ~top in
  let spec =
    {
      Operator.sp_name = "child";
      sp_owner = "worker";
      sp_inputs = [];
      sp_outputs = [ "x" ];
      sp_constraints = [];
      sp_depends_on_names = [];
      sp_object = None;
    }
  in
  let spec2 = { spec with Operator.sp_name = "child2"; sp_depends_on_names = [ "child" ] } in
  ignore (Dpm.apply dpm (Operator.decompose ~designer:"leader" ~problem:0 [ spec; spec2 ]));
  Alcotest.(check int) "three problems" 3 (List.length (Dpm.problems dpm));
  let child2 =
    List.find (fun p -> p.Problem.pr_name = "child2") (Dpm.problems dpm)
  in
  Alcotest.(check bool) "ordering resolved" true
    (child2.Problem.pr_depends_on <> []);
  (* dependent problem is Waiting until its sibling solves *)
  Alcotest.(check bool) "waiting" true (child2.Problem.pr_status = Problem.Waiting)

(* {2 Notify} *)

let test_notify_diff () =
  let subs = [ ("alice", [ "xa" ]); ("bob", [ "xb" ]) ] in
  let args_of = function 0 -> [ "xa"; "xb" ] | _ -> [] in
  let old_statuses _ = Constr.Consistent in
  let notifications =
    Notify_oracle.diff ~subscriptions:subs ~args_of ~old_statuses
      ~new_statuses:[ (0, Constr.Violated) ]
      ~old_feasible:(fun _ -> Domain.continuous 0. 10.)
      ~new_feasible:
        [ ("xa", Domain.continuous 0. 4.); ("xb", Domain.continuous 0. 10.) ]
  in
  let for_alice =
    List.find (fun n -> n.Notify.n_recipient = "alice") notifications
  in
  Alcotest.(check int) "alice gets violation + reduction" 2
    (List.length for_alice.Notify.n_events);
  let for_bob = List.find (fun n -> n.Notify.n_recipient = "bob") notifications in
  Alcotest.(check int) "bob only the violation" 1 (List.length for_bob.Notify.n_events)

let test_notify_empty_domain_event () =
  let notifications =
    Notify_oracle.diff
      ~subscriptions:[ ("d", [ "p" ]) ]
      ~args_of:(fun _ -> [])
      ~old_statuses:(fun _ -> Constr.Consistent)
      ~new_statuses:[]
      ~old_feasible:(fun _ -> Domain.continuous 0. 1.)
      ~new_feasible:[ ("p", Domain.Empty) ]
  in
  match notifications with
  | [ { Notify.n_events = [ Notify.Feasible_empty "p" ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected a Feasible_empty event"

let test_notify_resolution_event () =
  let notifications =
    Notify_oracle.diff
      ~subscriptions:[ ("d", [ "p" ]) ]
      ~args_of:(fun _ -> [ "p" ])
      ~old_statuses:(fun _ -> Constr.Violated)
      ~new_statuses:[ (0, Constr.Satisfied) ]
      ~old_feasible:(fun _ -> Domain.continuous 0. 1.)
      ~new_feasible:[]
  in
  match notifications with
  | [ { Notify.n_events = [ Notify.Violation_resolved 0 ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected a Violation_resolved event"

(* Direct contract tests of the routing primitive *)

let no_constraints ~old_status = function
  | (_ : int) -> old_status

let test_routed_widening_silent () =
  let events =
    Notify_oracle.routed_events
      ~args_of:(fun _ -> [])
      ~old_statuses:(no_constraints ~old_status:Constr.Consistent)
      ~new_statuses:[]
      ~old_feasible:(fun _ -> Domain.continuous 0. 1.)
      ~new_feasible:[ ("p", Domain.continuous 0. 5.) ]
  in
  Alcotest.(check int) "a widened subspace is not announced" 0
    (List.length events)

let test_routed_empty_precedence () =
  let events =
    Notify_oracle.routed_events
      ~args_of:(fun _ -> [])
      ~old_statuses:(no_constraints ~old_status:Constr.Consistent)
      ~new_statuses:[]
      ~old_feasible:(fun _ -> Domain.continuous 0. 1.)
      ~new_feasible:[ ("p", Domain.Empty) ]
  in
  match events with
  | [ ([ "p" ], Notify.Feasible_empty "p") ] -> ()
  | _ ->
    Alcotest.fail
      "an emptied domain must yield exactly Feasible_empty (never also a \
       reduction)"

let test_routed_resolution_requires_violated () =
  let route ~old_status ~new_status =
    Notify_oracle.routed_events
      ~args_of:(fun _ -> [ "p" ])
      ~old_statuses:(no_constraints ~old_status)
      ~new_statuses:[ (0, new_status) ]
      ~old_feasible:(fun _ -> Domain.continuous 0. 1.)
      ~new_feasible:[]
  in
  Alcotest.(check int) "Satisfied -> Consistent is silent" 0
    (List.length
       (route ~old_status:Constr.Satisfied ~new_status:Constr.Consistent));
  Alcotest.(check int) "Consistent -> Satisfied is silent" 0
    (List.length
       (route ~old_status:Constr.Consistent ~new_status:Constr.Satisfied));
  (match route ~old_status:Constr.Violated ~new_status:Constr.Consistent with
  | [ (_, Notify.Violation_resolved 0) ] -> ()
  | _ -> Alcotest.fail "Violated -> Consistent must resolve");
  match route ~old_status:Constr.Consistent ~new_status:Constr.Violated with
  | [ (_, Notify.Violation_detected 0) ] -> ()
  | _ -> Alcotest.fail "Consistent -> Violated must detect"

let test_notify_multi_recipient_split () =
  let subs = [ ("alice", [ "xa" ]); ("bob", [ "xb" ]); ("carol", [ "xc" ]) ] in
  let notifications =
    Notify_oracle.diff ~subscriptions:subs
      ~args_of:(fun _ -> [ "xa"; "xb" ])
      ~old_statuses:(fun _ -> Constr.Consistent)
      ~new_statuses:[ (0, Constr.Violated) ]
      ~old_feasible:(fun _ -> Domain.continuous 0. 1.)
      ~new_feasible:[]
  in
  let names = List.map (fun n -> n.Notify.n_recipient) notifications in
  Alcotest.(check (list string))
    "only subscribers of the touched properties" [ "alice"; "bob" ] names;
  List.iter
    (fun n ->
      match n.Notify.n_events with
      | [ Notify.Violation_detected 0 ] -> ()
      | _ -> Alcotest.fail "each recipient sees the one violation")
    notifications

(* The dense [Notify.diff] over a compiled routing table against the
   List.mem oracle, on randomized subscription tables and event batches:
   same notifications, same order. The oracle reads the statuses in the
   reverse of the diff's walk order, which is the order the dense diff
   promises for status events. *)
let notify_diff_matches_reference =
  QCheck.Test.make ~name:"notify diff matches List.mem reference" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let prop i = Printf.sprintf "p%d" i in
      let nprops = 1 + Random.State.int st 6 in
      let random_ids () =
        List.filter (fun _ -> Random.State.bool st) (List.init nprops Fun.id)
      in
      let subs = List.map (fun d -> (d, random_ids ())) [ "ann"; "bob"; "carol"; "dave" ] in
      let routing = Notify.compile ~prop_count:nprops subs in
      let subscriptions =
        List.map (fun (d, ids) -> (d, List.map prop ids)) subs
      in
      let ncids = Random.State.int st 6 in
      let args = Array.init ncids (fun _ -> Array.of_list (random_ids ())) in
      let statuses = [| Constr.Satisfied; Constr.Violated; Constr.Consistent |] in
      let pick_status () = statuses.(Random.State.int st 3) in
      let before = Array.init ncids (fun _ -> pick_status ()) in
      let after =
        Array.map (fun s -> if Random.State.bool st then pick_status () else s) before
      in
      (* a random permutation of the constraint ids *)
      let order = Array.init ncids Fun.id in
      for i = ncids - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      let numeric = Array.init nprops (fun _ -> Random.State.int st 5 > 0) in
      let net = Network.create () in
      Array.iteri
        (fun i num ->
          Network.add_prop net (prop i)
            (if num then Domain.continuous 0. 10. else Domain.Symbolic [ "a"; "b" ]))
        numeric;
      let before_feasible = Array.make nprops (Domain.continuous 0. 10.) in
      let after_feasible =
        Array.map
          (fun d ->
            match Random.State.int st 4 with
            | 0 -> Domain.Empty
            | 1 -> Domain.continuous 0. (float_of_int (1 + Random.State.int st 20))
            | _ -> d)
          before_feasible
      in
      let delta =
        Notify.diff routing net ~order ~args ~before ~after ~before_feasible
          ~after_feasible
      in
      let walk = Array.to_list order in
      let expected =
        Notify_oracle.diff ~subscriptions
          ~args_of:(fun cid -> List.map prop (Array.to_list args.(cid)))
          ~old_statuses:(fun cid -> before.(cid))
          ~new_statuses:(List.rev_map (fun cid -> (cid, after.(cid))) walk)
          ~old_feasible:(fun name ->
            before_feasible.(int_of_string (String.sub name 1 (String.length name - 1))))
          ~new_feasible:
            (List.filter_map
               (fun i -> if numeric.(i) then Some (prop i, after_feasible.(i)) else None)
               (List.init nprops Fun.id))
      in
      let changed cid = before.(cid) <> after.(cid) in
      delta.Notify.d_notifications = expected
      && delta.Notify.d_newly_violated
         = List.filter (fun cid -> changed cid && after.(cid) = Constr.Violated) walk
      && delta.Notify.d_resolved
         = List.filter
             (fun cid -> before.(cid) = Constr.Violated && after.(cid) = Constr.Satisfied)
             walk
      && Notify.status_changes ~before ~after
         = List.filter_map
             (fun cid -> if changed cid then Some (cid, before.(cid), after.(cid)) else None)
             (List.init ncids Fun.id))

(* {2 Browser} *)

let test_browsers_render () =
  let dpm, _, _, _ = fixture Dpm.Adpm in
  ignore (Dpm.apply dpm (synth "alice" 1 [ ("xa", 4.) ]));
  let obj = Browser.object_browser dpm "A" in
  Alcotest.(check bool) "object browser mentions xa" true (contains obj "xa");
  Alcotest.(check bool) "version shown" true (contains obj "Version number");
  let props = Browser.property_browser dpm ~props:[ "xa"; "xb" ] in
  Alcotest.(check bool) "beta column" true (contains props "# c's");
  let conflicts = Browser.conflict_browser dpm ~props:[ "xa" ] in
  Alcotest.(check bool) "status pane" true (contains conflicts "CONSTRAINTS");
  Alcotest.(check bool) "properties pane" true (contains conflicts "PROPERTIES")

let suite =
  [
    ("object versioning", `Quick, test_object_versioning);
    ("problem links", `Quick, test_problem_links);
    ("problem properties", `Quick, test_problem_properties);
    ("dpm accessors", `Quick, test_dpm_accessors);
    ("subsystems and cross detection", `Quick, test_subsystems_and_cross);
    ("synthesis validation", `Quick, test_synthesis_validation);
    ("malformed operations change nothing", `Quick, test_malformed_ops_change_nothing);
    ("ADPM propagation after synthesis", `Quick, test_adpm_propagation_after_synthesis);
    ("ADPM object version bump", `Quick, test_adpm_object_version_bumped);
    ("ADPM solved detection", `Quick, test_adpm_solved);
    ("ADPM notifications routed", `Quick, test_adpm_notifications_routed);
    ("relaxed feasible mode gate", `Quick, test_relaxed_feasible_mode_gate);
    ("ADPM skipped disjoint from checked", `Quick,
     test_adpm_skipped_disjoint_from_checked);
    ("designers first-seen order", `Quick, test_designers_first_seen_order);
    ("conventional: no propagation", `Quick, test_conventional_no_propagation);
    ("conventional: verification & staleness", `Quick,
     test_conventional_verification_and_staleness);
    ("conventional: cross-subsystem rule", `Quick, test_conventional_cross_rule);
    ("conventional: ineligible requests skipped", `Quick,
     test_conventional_skipped_verifications);
    ("spin counting", `Quick, test_spin_counting);
    ("early corrections are not spins", `Quick, test_spin_requires_integration_level);
    ("decomposition operation", `Quick, test_decompose_operation);
    ("notification diff and routing", `Quick, test_notify_diff);
    ("notification: empty feasible set", `Quick, test_notify_empty_domain_event);
    ("notification: resolution", `Quick, test_notify_resolution_event);
    ("routing: widening is silent", `Quick, test_routed_widening_silent);
    ("routing: empty dominates reduction", `Quick, test_routed_empty_precedence);
    ("routing: resolution requires Violated", `Quick,
     test_routed_resolution_requires_violated);
    ("routing: multi-recipient split", `Quick, test_notify_multi_recipient_split);
    QCheck_alcotest.to_alcotest notify_diff_matches_reference;
    ("browser renderings", `Quick, test_browsers_render);
  ]
