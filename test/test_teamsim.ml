(* Tests for Adpm_teamsim: configuration, designer behaviour, engine runs
   (determinism, termination, mode differences), metrics and reports. *)

open Adpm_util
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

let quick_cfg mode seed =
  let cfg = Config.default ~mode ~seed in
  { cfg with Config.max_ops = 500 }

(* {2 Engine determinism and termination} *)

let test_determinism () =
  let cfg = quick_cfg Dpm.Conventional 11 in
  let s1 = (Engine.run cfg Simple.scenario).Engine.o_summary in
  let s2 = (Engine.run cfg Simple.scenario).Engine.o_summary in
  Alcotest.(check int) "same ops" s1.Metrics.s_operations s2.Metrics.s_operations;
  Alcotest.(check int) "same evals" s1.Metrics.s_evaluations s2.Metrics.s_evaluations;
  Alcotest.(check int) "same spins" s1.Metrics.s_spins s2.Metrics.s_spins;
  Alcotest.(check int) "same profile length"
    (List.length s1.Metrics.s_profile)
    (List.length s2.Metrics.s_profile)

let test_seed_changes_run () =
  let conv seed =
    (Engine.run (quick_cfg Dpm.Conventional seed) Simple.scenario).Engine.o_summary
  in
  let ops = List.map (fun s -> (conv s).Metrics.s_operations) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "seeds vary outcomes" true
    (List.length (List.sort_uniq compare ops) > 1)

let test_completion_both_modes () =
  List.iter
    (fun mode ->
      List.iter
        (fun seed ->
          let outcome = Engine.run (quick_cfg mode seed) Simple.scenario in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d completes" (Dpm.mode_to_string mode) seed)
            true outcome.Engine.o_summary.Metrics.s_completed;
          Alcotest.(check bool) "ground truth satisfied" true
            (Dpm.ground_truth_solved outcome.Engine.o_dpm))
        [ 1; 2; 3 ])
    [ Dpm.Conventional; Dpm.Adpm ]

let test_op_budget_respected () =
  let cfg = { (quick_cfg Dpm.Conventional 1) with Config.max_ops = 5 } in
  let outcome = Engine.run cfg Simple.scenario in
  Alcotest.(check bool) "at most 5 ops" true
    (outcome.Engine.o_summary.Metrics.s_operations <= 5)

let test_adpm_setup_record () =
  let outcome = Engine.run (quick_cfg Dpm.Adpm 1) Simple.scenario in
  match outcome.Engine.o_summary.Metrics.s_profile with
  | first :: _ ->
    Alcotest.(check string) "setup first" "setup" first.Metrics.m_kind;
    Alcotest.(check bool) "setup evaluations counted" true
      (first.Metrics.m_evaluations > 0)
  | [] -> Alcotest.fail "profile must not be empty"

let test_conventional_has_verifications () =
  let outcome = Engine.run (quick_cfg Dpm.Conventional 1) Simple.scenario in
  let kinds =
    List.map (fun r -> r.Metrics.m_kind) outcome.Engine.o_summary.Metrics.s_profile
  in
  Alcotest.(check bool) "verification ops present" true
    (List.mem "verification" kinds);
  Alcotest.(check bool) "synthesis ops present" true (List.mem "synthesis" kinds)

let test_adpm_needs_no_verifications () =
  let outcome = Engine.run (quick_cfg Dpm.Adpm 1) Simple.scenario in
  let kinds =
    List.map (fun r -> r.Metrics.m_kind) outcome.Engine.o_summary.Metrics.s_profile
  in
  Alcotest.(check bool) "no verification ops" false (List.mem "verification" kinds)

let test_modes_shape () =
  (* the headline Fig. 9 directional claims at tiny sample size *)
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let mean mode =
    let summaries = Engine.run_many (quick_cfg mode 0) Simple.scenario ~seeds in
    let acc = Stats_acc.create () in
    List.iter (fun s -> Stats_acc.add_int acc s.Metrics.s_operations) summaries;
    let eacc = Stats_acc.create () in
    List.iter (fun s -> Stats_acc.add_int eacc s.Metrics.s_evaluations) summaries;
    (Stats_acc.mean acc, Stats_acc.mean eacc)
  in
  let conv_ops, conv_evals = mean Dpm.Conventional in
  let adpm_ops, adpm_evals = mean Dpm.Adpm in
  Alcotest.(check bool) "conventional needs more operations" true
    (conv_ops > adpm_ops);
  Alcotest.(check bool) "ADPM needs more evaluations" true
    (adpm_evals > conv_evals)

let test_on_op_callback () =
  let count = ref 0 in
  let outcome =
    Engine.run ~on_op:(fun _ -> incr count) (quick_cfg Dpm.Adpm 1) Simple.scenario
  in
  Alcotest.(check int) "callback per profile record" !count
    (List.length outcome.Engine.o_summary.Metrics.s_profile)

(* {2 Metrics and report} *)

let test_metrics_derivations () =
  let summary =
    {
      Metrics.s_scenario = "s";
      s_mode = Dpm.Adpm;
      s_seed = 1;
      s_completed = true;
      s_operations = 10;
      s_evaluations = 50;
      s_spins = 2;
      s_faults = Metrics.no_faults;
      s_profile =
        [
          { Metrics.m_index = 1; m_designer = "d"; m_kind = "synthesis";
            m_evaluations = 25; m_new_violations = 1; m_known_violations = 1;
            m_spin = false };
          { Metrics.m_index = 2; m_designer = "d"; m_kind = "synthesis";
            m_evaluations = 25; m_new_violations = 2; m_known_violations = 0;
            m_spin = true };
        ];
    }
  in
  Alcotest.(check (float 1e-9)) "evals per op" 5. (Metrics.evaluations_per_op summary);
  Alcotest.(check int) "violations found" 3 (Metrics.violations_found summary);
  Alcotest.(check bool) "summary line formats" true
    (String.length (Metrics.summary_line summary) > 0)

let test_report_aggregate () =
  let seeds = [ 1; 2; 3; 4 ] in
  let summaries = Engine.run_many (quick_cfg Dpm.Adpm 0) Simple.scenario ~seeds in
  let agg = Report.aggregate summaries in
  Alcotest.(check int) "runs" 4 agg.Report.a_runs;
  Alcotest.(check int) "all complete" 4 agg.Report.a_completed;
  Alcotest.(check bool) "mean ops positive" true (Stats_acc.mean agg.Report.a_ops > 0.);
  Alcotest.(check bool) "table renders" true
    (String.length (Report.comparison_table ~title:"t" [ agg ]) > 0)

let test_report_aggregate_validation () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Report.aggregate []);
       false
     with Invalid_argument _ -> true);
  let s1 = Engine.run_many (quick_cfg Dpm.Adpm 0) Simple.scenario ~seeds:[ 1 ] in
  let s2 = Engine.run_many (quick_cfg Dpm.Conventional 0) Simple.scenario ~seeds:[ 1 ] in
  Alcotest.(check bool) "mixed modes rejected" true
    (try
       ignore (Report.aggregate (s1 @ s2));
       false
     with Invalid_argument _ -> true)

let test_mean_profile () =
  let seeds = [ 1; 2 ] in
  let summaries = Engine.run_many (quick_cfg Dpm.Adpm 0) Simple.scenario ~seeds in
  let profile = Report.mean_profile summaries in
  Alcotest.(check bool) "non-empty" true (profile <> []);
  List.iter
    (fun (i, viol, evals) ->
      Alcotest.(check bool) "index positive" true (i >= 1);
      Alcotest.(check bool) "violations nonnegative" true (viol >= 0.);
      Alcotest.(check bool) "evals nonnegative" true (evals >= 0.))
    profile

let test_mean_profile_survivor_mean () =
  (* Synthetic profiles with an index gap: no run has a record at op 2.
     The mean must be taken over the runs that reached each index (the
     survivor mean), and unreached indices must be omitted — not padded
     with zeros as the old quadratic implementation did. *)
  let make records =
    {
      Metrics.s_scenario = "synthetic";
      s_mode = Dpm.Adpm;
      s_seed = 1;
      s_completed = true;
      s_operations = List.length records;
      s_evaluations = 0;
      s_spins = 0;
      s_faults = Metrics.no_faults;
      s_profile =
        List.map
          (fun (i, viol, evals) ->
            { Metrics.m_index = i; m_designer = "d"; m_kind = "synthesis";
              m_evaluations = evals; m_new_violations = viol;
              m_known_violations = 0; m_spin = false })
          records;
    }
  in
  let a = make [ (1, 1, 10); (3, 1, 30) ] in
  let b = make [ (1, 3, 20) ] in
  Alcotest.(check (list (triple int (float 1e-9) (float 1e-9))))
    "survivor means, gap omitted"
    [ (1, 2., 15.); (3, 1., 30.) ]
    (Report.mean_profile [ a; b ])

(* {2 Designer-level checks through the engine} *)

let test_tool_consistency () =
  (* after any completed run, every derived property equals its model value
     within the band tolerance (the tool computed it) *)
  let outcome = Engine.run (quick_cfg Dpm.Adpm 2) Simple.scenario in
  let net = Dpm.network outcome.Engine.o_dpm in
  List.iter
    (fun (prop, model) ->
      match Network.assigned_num net prop with
      | None -> Alcotest.fail (prop ^ " should be bound")
      | Some actual ->
        let expected =
          Adpm_expr.Expr.eval
            (fun v ->
              match Network.assigned_num net v with
              | Some x -> x
              | None -> Alcotest.fail (v ^ " unbound"))
            model
        in
        Alcotest.(check (float 1e-6)) (prop ^ " = model") expected actual)
    Simple.scenario.Scenario.sc_models

let test_ablation_flags_run () =
  (* every ablation configuration still completes the simple case *)
  let base = quick_cfg Dpm.Adpm 3 in
  List.iter
    (fun cfg ->
      let outcome = Engine.run cfg Simple.scenario in
      Alcotest.(check bool) "completes" true
        outcome.Engine.o_summary.Metrics.s_completed)
    [
      { base with Config.forward_ordering = Config.Random_target };
      { base with Config.forward_ordering = Config.Most_constrained };
      { base with Config.use_alpha_repair = false };
      { base with Config.use_monotone_hints = false };
      { base with Config.use_history_tabu = false };
      { base with Config.use_relaxed_feasible = false };
      { base with Config.adaptive_delta = false };
    ]

let suite =
  [
    ("engine determinism", `Quick, test_determinism);
    ("seed sensitivity", `Quick, test_seed_changes_run);
    ("completion in both modes", `Quick, test_completion_both_modes);
    ("operation budget respected", `Quick, test_op_budget_respected);
    ("ADPM setup propagation recorded", `Quick, test_adpm_setup_record);
    ("conventional mode issues verifications", `Quick,
     test_conventional_has_verifications);
    ("ADPM mode needs no verifications", `Quick, test_adpm_needs_no_verifications);
    ("mode comparison shape", `Quick, test_modes_shape);
    ("on_op callback", `Quick, test_on_op_callback);
    ("metrics derivations", `Quick, test_metrics_derivations);
    ("report aggregation", `Quick, test_report_aggregate);
    ("report validation", `Quick, test_report_aggregate_validation);
    ("mean profile", `Quick, test_mean_profile);
    ("mean profile survivor mean", `Quick, test_mean_profile_survivor_mean);
    ("tool-model consistency at completion", `Quick, test_tool_consistency);
    ("ablation configurations complete", `Quick, test_ablation_flags_run);
  ]
