(* Tests for Adpm_scenarios: the published network statistics (26/21 for the
   sensor, 35/30 for the receiver), satisfiability witnesses, completion in
   both modes, and the Section 2.4 walkthrough numbers. *)

open Adpm_interval
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

let count_props net =
  List.length
    (List.filter
       (fun n -> Domain.is_numeric (Network.initial_domain net n))
       (Network.prop_names net))

let test_sensor_statistics () =
  let dpm = Sensor.scenario.Scenario.sc_build ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  Alcotest.(check int) "26 properties (paper: up to 26)" 26 (count_props net);
  Alcotest.(check int) "21 constraints (paper: up to 21)" 21
    (Network.constraint_count net);
  (* "most of them linear": count non-linear constraints *)
  let nonlinear =
    List.filter
      (fun c ->
        let rec nl e =
          match e with
          | Adpm_expr.Expr.Const _ | Adpm_expr.Expr.Var _ -> false
          | Adpm_expr.Expr.Neg a -> nl a
          | Adpm_expr.Expr.Add (a, b) | Adpm_expr.Expr.Sub (a, b) -> nl a || nl b
          | Adpm_expr.Expr.Mul (a, b) ->
            (Adpm_expr.Expr.vars a <> [] && Adpm_expr.Expr.vars b <> [])
            || nl a || nl b
          | Adpm_expr.Expr.Div (a, b) -> Adpm_expr.Expr.vars b <> [] || nl a || nl b
          | Adpm_expr.Expr.Pow (a, n) -> (n > 1 && Adpm_expr.Expr.vars a <> []) || nl a
          | Adpm_expr.Expr.Sqrt a | Adpm_expr.Expr.Exp a | Adpm_expr.Expr.Ln a ->
            Adpm_expr.Expr.vars a <> [] || nl a
          | Adpm_expr.Expr.Abs a -> nl a
          | Adpm_expr.Expr.Min (a, b) | Adpm_expr.Expr.Max (a, b) -> nl a || nl b
        in
        nl (Constr.diff c))
      (Network.constraints net)
  in
  Alcotest.(check bool) "mostly linear" true
    (List.length nonlinear * 2 < Network.constraint_count net)

let test_receiver_statistics () =
  let dpm = Receiver.scenario.Scenario.sc_build ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  Alcotest.(check int) "35 properties (paper: up to 35)" 35 (count_props net);
  Alcotest.(check int) "30 constraints (paper: up to 30)" 30
    (Network.constraint_count net)

(* witnesses: a known-good assignment satisfies every constraint *)
let check_witness dpm witness =
  let net = Dpm.network dpm in
  List.iter (fun (p, x) -> Network.assign net p (Value.Num x)) witness;
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "witness satisfies %s" c.Constr.name)
        true
        (Network.check_constraint_point net c))
    (Network.constraints net)

let test_sensor_witness () =
  check_witness
    (Sensor.scenario.Scenario.sc_build ~mode:Dpm.Conventional)
    [
      ("radius", 500.); ("thickness", 5.); ("gap", 2.); ("base-cap", 6.);
      ("sensitivity", 1.1); ("max-pressure", 225.); ("sensor-noise", 1.2);
      ("yield", 84.); ("amp-gain", 20.); ("adc-bits", 12.); ("bias-current", 1.);
      ("circuit-noise", 3.4); ("interface-power", 6.6); ("offset", 1.);
    ]

let test_receiver_witness () =
  check_witness
    (Receiver.scenario.Scenario.sc_build ~mode:Dpm.Conventional)
    [
      ("diff-pair-w", 4.); ("freq-ind", 0.2); ("bias-current", 4.);
      ("load-res", 1.); ("mixer-gm", 5.); ("mixer-bias", 2.);
      ("lna-gain", 40.); ("lna-power", 140.); ("lna-zin", 50.);
      ("mixer-gain", 7.5); ("mixer-power", 24.);
      ("beam-length", 13.); ("beam-width", 2.); ("beam-thickness", 2.25);
      ("gap", 0.5); ("resonator-q", 2000.); ("drive-v", 10.);
      ("center-freq", 100.); ("filter-bw", 1.); ("insertion-att", 1.37);
      ("filter-power", 4.); ("freq-precision", 1.9);
    ]

let test_scenarios_complete () =
  List.iter
    (fun (scenario, max_ops) ->
      List.iter
        (fun mode ->
          List.iter
            (fun seed ->
              let cfg = Config.default ~mode ~seed in
              let cfg = { cfg with Config.max_ops } in
              let outcome = Engine.run cfg scenario in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s seed %d completes"
                   scenario.Scenario.sc_name (Dpm.mode_to_string mode) seed)
                true outcome.Engine.o_summary.Metrics.s_completed)
            [ 1; 2; 3 ])
        [ Dpm.Conventional; Dpm.Adpm ])
    [ (Simple.scenario, 2000); (Sensor.scenario, 2000); (Receiver.scenario, 2000) ]

let test_lna_structure () =
  let dpm = Lna.scenario.Scenario.sc_build ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  Alcotest.(check int) "beta(Diff-pair-W) = 3 (paper, Fig. 3)" 3
    (Network.beta net Lna.diff_pair_w);
  Alcotest.(check int) "beta(Freq-ind) = 4" 4 (Network.beta net Lna.freq_ind);
  Alcotest.(check (list string)) "team" [ "leader"; "circuit"; "device" ]
    (Dpm.designers dpm)

let test_lna_simulation_completes () =
  List.iter
    (fun mode ->
      let cfg = Config.default ~mode ~seed:1 in
      let outcome = Engine.run cfg Lna.scenario in
      Alcotest.(check bool)
        (Printf.sprintf "lna/%s completes" (Dpm.mode_to_string mode))
        true outcome.Engine.o_summary.Metrics.s_completed)
    [ Dpm.Conventional; Dpm.Adpm ]

let test_receiver_tightness_monotone () =
  (* harder specs never make the conventional process cheaper on average
     (weak directional check at small sample size) *)
  let mean_ops req_gain =
    let scenario = Receiver.with_req_gain req_gain in
    let cfg = Config.default ~mode:Dpm.Conventional ~seed:0 in
    let summaries = Engine.run_many cfg scenario ~seeds:[ 1; 2; 3 ] in
    List.fold_left (fun acc s -> acc + s.Metrics.s_operations) 0 summaries
  in
  let loose = mean_ops 30. and tight = mean_ops 2000. in
  Alcotest.(check bool) "tight spec costs at least as much" true (tight >= loose)

let suite =
  [
    ("sensor network statistics", `Quick, test_sensor_statistics);
    ("receiver network statistics", `Quick, test_receiver_statistics);
    ("sensor witness", `Quick, test_sensor_witness);
    ("receiver witness", `Quick, test_receiver_witness);
    ("all scenarios complete in both modes", `Slow, test_scenarios_complete);
    ("lna structure", `Quick, test_lna_structure);
    ("lna simulation completes", `Quick, test_lna_simulation_completes);
    ("receiver tightness direction", `Slow, test_receiver_tightness_monotone);
  ]
