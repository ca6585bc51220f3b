(* Tests for Adpm_experiments: the walkthrough reproduces the paper's
   published values; the aggregate experiments reproduce the directional
   claims at reduced seed counts. *)

open Adpm_experiments

(* Exact values, recorded from the implementation they pin: floats are
   compared through [%h], so any change of a single bit fails. *)
let check_bits name expected v =
  Alcotest.(check string) name expected (Printf.sprintf "%h" v)

(* The whole Figs. 2-4 walkthrough text: the three browser views, the
   windows, alpha/beta and the violation lists. *)
let fig234_render =
  {|=== Figures 2-4: Section 2.4 walkthrough (LNA + MEMS filter) ===

Fig. 2 — object browser after beam length := 13 um:
Object name: LNA+Mixer
Version number: 1.0.0 (current)
  Diff-pair-W    Abstraction Levels: Transistor,Geometry
      Consistent values: [2.5, 3.69822]
  Freq-ind       Abstraction Levels: Transistor,Geometry
      Consistent values: [0.174255, 0.5]

  paper:    Freq-ind {0.174255, 0.500000}   Diff-pair-W {2.500000, 3.698225}
  measured: Freq-ind {0.174255, 0.500000}   Diff-pair-W {2.500000, 3.698221}

Fig. 3 — constraint/property browser:
+-------------+-------+---------------------+------------------------------------------------------+
|  Property   | # c's |        Value        |                     Constraints                      |
+-------------+-------+---------------------+------------------------------------------------------+
| Diff-pair-W |     3 | <No value assigned> | LNAPower-C7, LNAGain-C10, LNA-Zin-C9                 |
| Freq-ind    |     4 | <No value assigned> | LNAPower-C7, LNAGain-C10, LNA-Zin-C9, FilterMatch-C4 |
+-------------+-------+---------------------+------------------------------------------------------+

  paper: beta(Diff-pair-W) = 3; measured: 3

Violations after W := 2.5 um: LNAGain-C10 (paper: gain requirement)
Violations after Zin spec := 40 Ohm: LNA-Zin-C9 (paper: impedance)

Fig. 4 — conflict resolution view:
CONSTRAINTS
  LNAPower-C7          Satisfied
  LNAGain-C10          Violated
  LNA-Zin-C9           Violated
  FilterMatch-C4       Satisfied
PROPERTIES
+-------------+-------+-------+-----------+----------------------+
|  Property   | # c's | Value |  Object   | Connected violations |
+-------------+-------+-------+-----------+----------------------+
| Diff-pair-W |     3 |   2.5 | LNA+Mixer |                    2 |
| Freq-ind    |     4 |   0.2 | LNA+Mixer |                    2 |
| Min-LNA-Zin |     1 |    40 |           |                    1 |
+-------------+-------+-------+-----------+----------------------+

  paper: alpha(Diff-pair-W) = 2; measured: 2

Re-sizing W := 3.5 um resolved: LNA-Zin-C9, LNAGain-C10; remaining violations: 0
  paper: both violations fixed with a single iteration
|}

let test_fig234_walkthrough () =
  let r = Exp_fig234.run () in
  let lo, hi = r.Exp_fig234.freq_ind_window in
  Alcotest.(check (float 1e-4)) "Freq-ind window low (paper 0.174255)" 0.174255 lo;
  Alcotest.(check (float 1e-4)) "Freq-ind window high (paper 0.5)" 0.5 hi;
  let wlo, whi = r.Exp_fig234.diff_pair_window in
  Alcotest.(check (float 1e-4)) "Diff-pair-W low (paper 2.5)" 2.5 wlo;
  Alcotest.(check (float 1e-3)) "Diff-pair-W high (paper 3.698225)" 3.698225 whi;
  Alcotest.(check int) "beta = 3 (Fig. 3)" 3 r.Exp_fig234.beta_diff_pair;
  Alcotest.(check int) "alpha = 2 (Fig. 4)" 2 r.Exp_fig234.alpha_after_conflicts;
  Alcotest.(check int) "one gain violation" 1
    (List.length r.Exp_fig234.violations_after_gain_choice);
  Alcotest.(check int) "one impedance violation" 1
    (List.length r.Exp_fig234.violations_after_tightening);
  Alcotest.(check int) "both fixed by one re-sizing" 2
    (List.length r.Exp_fig234.resolved_by_resize);
  Alcotest.(check int) "no violations remain" 0 r.Exp_fig234.remaining_violations;
  List.iter
    (fun (name, pin, x) -> check_bits name pin x)
    [
      ("Freq-ind low", "0x1.64df985e07abap-3", lo);
      ("Freq-ind high", "0x1p-1", hi);
      ("Diff-pair-W low", "0x1.4p+1", wlo);
      ("Diff-pair-W high", "0x1.d95f4ae372a1ep+1", whi);
    ];
  Alcotest.(check string) "rendered walkthrough" fig234_render
    (Exp_fig234.render r)

let test_fig7_shape () =
  let r = Exp_fig7.run ~seeds:10 () in
  (* ADPM finds fewer violations, stops finding them earlier, and the run
     is shorter; it pays more evaluations per operation *)
  Alcotest.(check bool) "fewer violations" true
    (r.Exp_fig7.adpm_total_viol < r.Exp_fig7.conv_total_viol);
  Alcotest.(check bool) "violations stop earlier" true
    (r.Exp_fig7.adpm_last_violation_op <= r.Exp_fig7.conv_last_violation_op);
  Alcotest.(check bool) "shorter run on average" true
    (r.Exp_fig7.adpm_mean_ops < r.Exp_fig7.conv_mean_ops);
  List.iter
    (fun (name, pin, x) -> check_bits name pin x)
    [
      ("conv_total_viol", "0x1.5266666666666p+5", r.Exp_fig7.conv_total_viol);
      ("adpm_total_viol", "0x1.6333333333333p+2", r.Exp_fig7.adpm_total_viol);
      ("conv_total_evals", "0x1.07p+8", r.Exp_fig7.conv_total_evals);
      ("adpm_total_evals", "0x1.b7e199999999ap+10", r.Exp_fig7.adpm_total_evals);
      ("conv_mean_ops", "0x1.acccccccccccdp+4", r.Exp_fig7.conv_mean_ops);
      ("adpm_mean_ops", "0x1.0333333333333p+3", r.Exp_fig7.adpm_mean_ops);
    ];
  Alcotest.(check (pair int int)) "last violation op (conv, adpm)" (112, 12)
    (r.Exp_fig7.conv_last_violation_op, r.Exp_fig7.adpm_last_violation_op);
  (* the per-operation series, every value through [%h] *)
  let series_bits s =
    String.concat ";"
      (Array.to_list
         (Array.mapi
            (fun i op ->
              Printf.sprintf "%d %h %h" op s.Exp_fig7.violations.(i)
                s.Exp_fig7.evaluations.(i))
            s.Exp_fig7.ops))
  in
  Alcotest.(check (pair string string)) "series digests (conv, adpm)"
    ("36f211fbd0e532b1a87e1dafd587663d", "6d913fd70360a3a77654dedcce9dc1c5")
    ( Digest.to_hex (Digest.string (series_bits r.Exp_fig7.conventional)),
      Digest.to_hex (Digest.string (series_bits r.Exp_fig7.adpm)) );
  Alcotest.(check bool) "render works" true
    (String.length (Exp_fig7.render r) > 0)

let test_fig8_series () =
  let r = Exp_fig8.run ~seed:2 () in
  Alcotest.(check int) "receiver has 30 constraints" 30 r.Exp_fig8.constraints;
  Alcotest.(check int) "receiver has 35 properties" 35 r.Exp_fig8.properties;
  Alcotest.(check bool) "completed" true r.Exp_fig8.completed;
  (* cumulative series are monotone *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Exp_fig8.cumulative_evaluations <= b.Exp_fig8.cumulative_evaluations
      && a.Exp_fig8.cumulative_spins <= b.Exp_fig8.cumulative_spins
      && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative monotone" true (monotone r.Exp_fig8.rows);
  Alcotest.(check bool) "render works" true (String.length (Exp_fig8.render r) > 0)

(* The nine ratios at 10 seeds. ADPM's sensor runs all take the same
   number of operations, so its variability ratio is infinite. *)
let check_fig9_pins label (v : Exp_fig9.verdicts) =
  List.iter
    (fun (name, pin, x) -> check_bits (label ^ " " ^ name) pin x)
    [
      ("ops_ratio_sensor", "0x1.56eeeeeeeeeefp+3", v.ops_ratio_sensor);
      ("ops_ratio_receiver", "0x1.147348e691cd2p+4", v.ops_ratio_receiver);
      ("variability_ratio_sensor", "infinity", v.variability_ratio_sensor);
      ( "variability_ratio_receiver",
        "0x1.7e3b8d9d15112p+6",
        v.variability_ratio_receiver );
      ("spin_fraction", "0x0p+0", v.spin_fraction);
      ("eval_penalty_sensor", "0x1.6f1e0387f1e03p+1", v.eval_penalty_sensor);
      ("eval_penalty_receiver", "0x1.2c541007d1dd1p+1", v.eval_penalty_receiver);
      ( "per_op_penalty_sensor",
        "0x1.022dca6ee3814p+5",
        v.per_op_penalty_sensor );
      ( "per_op_penalty_receiver",
        "0x1.47a59358f974ap+5",
        v.per_op_penalty_receiver );
    ]

let test_fig9_claims () =
  let r = Exp_fig9.run ~seeds:10 () in
  let v = Exp_fig9.verdicts r in
  check_fig9_pins "jobs=1" v;
  (* the domain pool reproduces the sequential cells bit for bit *)
  check_fig9_pins "jobs=2" (Exp_fig9.verdicts (Exp_fig9.run ~seeds:10 ~jobs:2 ()));
  Alcotest.(check bool) "conventional >= 2x ops (sensor)" true
    (v.Exp_fig9.ops_ratio_sensor >= 2.);
  Alcotest.(check bool) "conventional >= 2x ops (receiver)" true
    (v.Exp_fig9.ops_ratio_receiver >= 2.);
  Alcotest.(check bool) "reduction larger for receiver" true
    v.Exp_fig9.reduction_larger_for_receiver;
  Alcotest.(check bool) "ADPM at least 3x less variable (receiver)" true
    (v.Exp_fig9.variability_ratio_receiver >= 3.);
  Alcotest.(check bool) "ADPM spins at most ~7% of conventional" true
    (v.Exp_fig9.spin_fraction <= 0.15);
  Alcotest.(check bool) "ADPM pays more evaluations (sensor)" true
    (v.Exp_fig9.eval_penalty_sensor > 1.);
  Alcotest.(check bool) "ADPM pays more evaluations (receiver)" true
    (v.Exp_fig9.eval_penalty_receiver > 1.);
  Alcotest.(check bool) "total penalty smaller for harder case" true
    v.Exp_fig9.penalty_smaller_for_receiver;
  Alcotest.(check bool) "per-op penalty exceeds total penalty" true
    (v.Exp_fig9.per_op_penalty_sensor > v.Exp_fig9.eval_penalty_sensor
    && v.Exp_fig9.per_op_penalty_receiver > v.Exp_fig9.eval_penalty_receiver);
  Alcotest.(check bool) "render works" true (String.length (Exp_fig9.render r) > 0)

let test_fig10_robustness () =
  let r = Exp_fig10.run ~seeds:3 ~sweep:[ 30.; 1000.; 3000. ] () in
  let show p =
    Printf.sprintf "%h %h %h %h %h" p.Exp_fig10.req_gain p.Exp_fig10.conv_mean_ops
      p.Exp_fig10.conv_sd_ops p.Exp_fig10.adpm_mean_ops p.Exp_fig10.adpm_sd_ops
  in
  Alcotest.(check (list string))
    "points (req_gain, conv mean, conv sd, adpm mean, adpm sd)"
    [
      "0x1.ep+4 0x1.39aaaaaaaaaaap+8 0x1.f66236fcbbabfp+7 0x1.d555555555555p+3 \
       0x1.279a74590331cp+0";
      "0x1.f4p+9 0x1.7655555555555p+8 0x1.36008cefe8c56p+6 0x1.d555555555555p+3 \
       0x1.279a74590331cp+0";
      "0x1.77p+11 0x1.014p+10 0x1.27f1ba777d7c1p+8 0x1.6355555555555p+7 \
       0x1.10282531bc6adp+6";
    ]
    (List.map show r.Exp_fig10.points);
  Alcotest.(check bool) "conventional varies more with tightness" true
    (r.Exp_fig10.conv_spread > r.Exp_fig10.adpm_spread);
  Alcotest.(check bool) "render works" true (String.length (Exp_fig10.render r) > 0)

let test_ablation () =
  let r = Exp_ablation.run ~seeds:3 () in
  Alcotest.(check int) "eight TeamSim rows" 8 (List.length r.Exp_ablation.teamsim);
  let show_row (t : Exp_ablation.teamsim_row) =
    Printf.sprintf "%s: %h %h %h %d/%d" t.label t.mean_ops t.sd_ops t.mean_evals
      t.completion t.runs
  in
  Alcotest.(check (list string))
    "TeamSim rows (label: mean ops, sd ops, mean evals, done/runs)"
    [
      "ADPM, all heuristics: 0x1.d555555555555p+3 0x1.279a74590331cp+0 \
       0x1.1f2aaaaaaaaabp+10 3/3";
      "no feasible-subspace ordering (2.3.1): 0x1.ep+3 0x1.bb67ae8584caap+0 \
       0x1.072aaaaaaaaabp+10 3/3";
      "most-constrained-first ordering (2.3.2): 0x1.caaaaaaaaaaabp+3 \
       0x1.279a74590331dp-1 0x1.19p+10 3/3";
      "no alpha conflict repair (2.3.3): 0x1.cp+3 0x0p+0 0x1.05p+10 3/3";
      "no monotone direction hints: 0x1.8p+3 0x0p+0 0x1.27p+9 3/3";
      "no constraint-margin repair windows: 0x1p+4 0x1p+0 \
       0x1.072aaaaaaaaabp+10 3/3";
      "no design-history tabu: 0x1.d555555555555p+3 0x1.279a74590331cp+0 \
       0x1.1f2aaaaaaaaabp+10 3/3";
      "conventional (lambda = F): 0x1.39aaaaaaaaaaap+8 0x1.f66236fcbbabfp+7 \
       0x1.4a55555555556p+9 3/3";
    ]
    (List.map show_row r.Exp_ablation.teamsim);
  let show c =
    Printf.sprintf "%s: %h %d" c.Exp_ablation.c_label c.Exp_ablation.c_mean_window
      c.Exp_ablation.c_evaluations
  in
  Alcotest.(check (list string)) "consistency rows (label: window, evaluations)"
    [
      "hull consistency (HC4 fixpoint): 0x1.1cd7ce53ad8c5p-1 105";
      "bound shaving, 4 slices: 0x1.65185410053cfp-4 4377";
      "bound shaving, 8 slices: 0x1.ea2818bbca86p-3 4467";
    ]
    (List.map show r.Exp_ablation.consistency);
  Alcotest.(check bool) "render works" true
    (String.length (Exp_ablation.render r) > 0)

(* The conventional-to-ADPM operation ratio at every default latency, 10
   seeds per cell, bit for bit, as the Fig. 9 ratios. *)
let test_latency_sweep_smoke () =
  let r = Exp_latency.run ~seeds:10 () in
  List.iter
    (fun p ->
      Alcotest.(check int) "conv cell has the runs" 10
        p.Exp_latency.p_conv.Adpm_teamsim.Report.a_runs;
      Alcotest.(check int) "adpm cell has the runs" 10
        p.Exp_latency.p_adpm.Adpm_teamsim.Report.a_runs)
    r.Exp_latency.points;
  let v = Exp_latency.verdicts r in
  Alcotest.(check (list (pair int string)))
    "(latency, conv/ADPM ops ratio)"
    [
      (0, "0x1.56eeeeeeeeeefp+3");
      (1, "0x1.7e66666666667p+3");
      (2, "0x1.165dddddddddep+7");
      (4, "0x1.1611111111111p+7");
      (8, "0x1.584cccccccccdp+7");
    ]
    (List.map
       (fun (l, x) -> (l, Printf.sprintf "%h" x))
       v.Exp_latency.ops_ratio_by_latency);
  Alcotest.(check bool) "advantage grows" true v.Exp_latency.advantage_grows;
  Alcotest.(check bool) "render works" true
    (String.length (Exp_latency.render r) > 0)

let test_adapt_smoke () =
  let r = Exp_adapt.run ~seeds:2 () in
  Alcotest.(check int) "families x schedules" 9
    (List.length r.Exp_adapt.points);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s plan is concrete" p.Exp_adapt.family
           p.Exp_adapt.schedule)
        true
        (String.length p.Exp_adapt.plan > 0);
      Alcotest.(check bool) "adpm completes under the shift" true
        (p.Exp_adapt.adpm.Exp_adapt.done_rate > 0.))
    r.Exp_adapt.points;
  check_bits "adapt_advantage" "0x1.01872f22e9802p+1"
    r.Exp_adapt.adapt_advantage;
  let cell (c : Exp_adapt.cell) = Printf.sprintf "%h %h %h" c.ops c.evals c.done_rate in
  Alcotest.(check (list string))
    "points (family/schedule: conv | ADPM | headroom as ops evals done)"
    [
      "3x2 ring/budget-squeeze: 0x1.6p+3 0x1.4p+3 0x1p+0 | 0x1p+3 0x1.1ep+8 \
       0x1p+0 | 0x1.8p+2 0x1.498p+8 0x1p+0";
      "3x2 ring/floor-raise: 0x1.2p+5 0x1.98p+5 0x1p+0 | 0x1.cp+2 0x1.dap+7 \
       0x1p+0 | 0x1.ep+2 0x1.918p+8 0x1p+0";
      "3x2 ring/double-shift: 0x1.2cp+5 0x1.acp+5 0x1p+0 | 0x1.1p+3 0x1.4ap+8 \
       0x1p+0 | 0x1.cp+2 0x1.8e8p+8 0x1p+0";
      "4x2 star+coupling/budget-squeeze: 0x1.a8p+4 0x1.14p+5 0x1p+0 | 0x1.9p+3 \
       0x1.138p+9 0x1p+0 | 0x1.1p+3 0x1.044p+9 0x1p+0";
      "4x2 star+coupling/floor-raise: 0x1.74p+5 0x1.0cp+6 0x1p+0 | 0x1.3p+3 \
       0x1.6f8p+8 0x1p+0 | 0x1.1p+3 0x1.044p+9 0x1p+0";
      "4x2 star+coupling/double-shift: 0x1.6cp+5 0x1.fcp+5 0x1p+0 | 0x1.dp+3 \
       0x1.5d8p+9 0x1p+0 | 0x1.1p+3 0x1.114p+9 0x1p+0";
      "4x3 random/budget-squeeze: 0x1.18p+4 0x1.ap+3 0x1p+0 | 0x1.ap+4 \
       0x1.3b2p+10 0x1p+0 | 0x1.ap+3 0x1.9p+9 0x1p+0";
      "4x3 random/floor-raise: 0x1.3p+4 0x1.08p+4 0x1p+0 | 0x1.ap+3 0x1.b68p+8 \
       0x1p+0 | 0x1.ap+3 0x1.848p+9 0x1p+0";
      "4x3 random/double-shift: 0x1.4p+4 0x1.1p+4 0x1p+0 | 0x1.28p+5 \
       0x1.e24p+10 0x1p+0 | 0x1.ap+3 0x1.9dp+9 0x1p+0";
    ]
    (List.map
       (fun (p : Exp_adapt.point) ->
         Printf.sprintf "%s/%s: %s | %s | %s" p.family p.schedule (cell p.conv)
           (cell p.adpm) (cell p.headroom))
       r.Exp_adapt.points);
  Alcotest.(check bool) "render works" true
    (String.length (Exp_adapt.render r) > 0)

let test_faults_completion () =
  let v = Exp_faults.verdicts (Exp_faults.run ~seeds:3 ()) in
  let show (drop, conv, adpm) = Printf.sprintf "%h %h %h" drop conv adpm in
  Alcotest.(check (list string)) "completion_by_drop (drop, conv, adpm)"
    [
      "0x0p+0 0x1p+0 0x1p+0";
      "0x1.999999999999ap-4 0x1.5555555555555p-1 0x1p+0";
      "0x1p-2 0x0p+0 0x1p+0";
      "0x1p-1 0x0p+0 0x1p+0";
    ]
    (List.map show v.Exp_faults.completion_by_drop);
  Alcotest.(check bool) "ADPM degrades slower" true
    v.Exp_faults.adpm_degrades_slower

let suite =
  [
    ("Fig 2-4 walkthrough values", `Quick, test_fig234_walkthrough);
    ("latency sweep smoke", `Slow, test_latency_sweep_smoke);
    ("Fig 7 profile shape", `Slow, test_fig7_shape);
    ("Fig 8 statistics window", `Quick, test_fig8_series);
    ("Fig 9 headline claims", `Slow, test_fig9_claims);
    ("Fig 10 robustness", `Slow, test_fig10_robustness);
    ("ablations", `Slow, test_ablation);
    ("adaptability smoke", `Slow, test_adapt_smoke);
    ("fault sweep completion", `Slow, test_faults_completion);
  ]
