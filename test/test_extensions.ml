(* Tests for the extension features: generated scenarios, bound shaving,
   indirect alpha/beta, forward-ordering variants, statistics export, and
   the scaling experiment. *)

open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* {2 Generated scenarios} *)

let test_generated_counts () =
  let p = Generated.default_params ~subsystems:4 ~vars:3 in
  let dpm = Generated.build p ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  Alcotest.(check int) "properties" (Generated.property_count p)
    (List.length (Network.prop_names net));
  Alcotest.(check int) "constraints" (Generated.constraint_count p)
    (Network.constraint_count net);
  Alcotest.(check int) "designers (leader + 4)" 5
    (List.length (Dpm.designers dpm))

let test_generated_deterministic () =
  let p = Generated.default_params ~subsystems:3 ~vars:2 in
  let d1 = Generated.build p ~mode:Dpm.Adpm in
  let d2 = Generated.build p ~mode:Dpm.Adpm in
  (* identical generated coefficients => identical requirement values *)
  List.iter
    (fun prop ->
      Alcotest.(check (option (float 1e-12)))
        (prop ^ " equal across builds")
        (Network.assigned_num (Dpm.network d1) prop)
        (Network.assigned_num (Dpm.network d2) prop))
    [ "p_budget"; "gmin0"; "gmin1"; "gmin2" ];
  let p' = { p with Generated.g_seed = 99 } in
  let d3 = Generated.build p' ~mode:Dpm.Adpm in
  Alcotest.(check bool) "different seed differs" true
    (Network.assigned_num (Dpm.network d1) "p_budget"
    <> Network.assigned_num (Dpm.network d3) "p_budget")

let test_generated_witness_satisfiable () =
  (* binding every parameter to the witness value and every derived
     property to its model value satisfies all constraints *)
  let p = Generated.default_params ~subsystems:3 ~vars:2 in
  let scenario = Generated.scenario p in
  let dpm = scenario.Scenario.sc_build ~mode:Dpm.Conventional in
  let net = Dpm.network dpm in
  for i = 0 to 2 do
    for j = 0 to 1 do
      Network.assign net (Printf.sprintf "x%d_%d" i j) (Value.Num 5.)
    done
  done;
  List.iter
    (fun (prop, model) ->
      let v = Expr.eval (fun name ->
          match Network.assigned_num net name with
          | Some x -> x
          | None -> Alcotest.fail (name ^ " unbound")) model
      in
      Network.assign net prop (Value.Num v))
    scenario.Scenario.sc_models;
  Alcotest.(check bool) "witness satisfies everything" true (Network.solved net)

let test_generated_completes () =
  List.iter
    (fun mode ->
      List.iter
        (fun seed ->
          let p = Generated.default_params ~subsystems:3 ~vars:2 in
          let cfg = Config.default ~mode ~seed in
          let outcome = Engine.run cfg (Generated.scenario p) in
          Alcotest.(check bool)
            (Printf.sprintf "generated %s seed %d completes"
               (Dpm.mode_to_string mode) seed)
            true outcome.Engine.o_summary.Metrics.s_completed)
        [ 1; 2 ])
    [ Dpm.Conventional; Dpm.Adpm ]

let test_generated_validation () =
  Alcotest.(check bool) "1 subsystem rejected" true
    (try
       ignore (Generated.build (Generated.default_params ~subsystems:1 ~vars:2)
                 ~mode:Dpm.Adpm);
       false
     with Invalid_argument _ -> true)

let test_generated_spec_roundtrip () =
  let cases =
    [
      Generated.default_params ~subsystems:4 ~vars:3;
      { (Generated.default_params ~subsystems:5 ~vars:2) with
        Generated.g_seed = 7; g_slack = 0.3; g_topology = Generated.Star };
      { (Generated.default_params ~subsystems:6 ~vars:1) with
        Generated.g_topology = Generated.Random 0.25;
        g_coupling = 0.5; g_slack_jitter = 0.4 };
    ]
  in
  List.iter
    (fun p ->
      let spec = Generated.spec_of_params p in
      match Generated.params_of_spec spec with
      | Ok p' ->
        Alcotest.(check bool) (spec ^ " round-trips") true (p = p')
      | Error e -> Alcotest.failf "%s failed to parse: %s" spec e)
    cases;
  (* omitted fields default *)
  (match Generated.params_of_spec "n=3,k=2" with
  | Ok p ->
    Alcotest.(check bool) "defaults fill in" true
      (p = Generated.default_params ~subsystems:3 ~vars:2)
  | Error e -> Alcotest.fail e);
  let expect_error label spec needle =
    match Generated.params_of_spec spec with
    | Ok _ -> Alcotest.failf "%s unexpectedly parsed" label
    | Error e ->
      Alcotest.(check bool) (label ^ ": " ^ e) true (contains e needle)
  in
  expect_error "malformed field" "n=3,k" "key=value";
  expect_error "unknown key" "n=3,k=2,frobs=1" "unknown field";
  expect_error "bad number" "n=3,k=two" "not an integer";
  expect_error "bad topology" "n=3,k=2,topology=mesh" "unknown topology";
  expect_error "validation folds to Error" "n=1,k=2" "subsystems";
  expect_error "empty spec" "" "empty"

let test_generated_topologies () =
  let count_edges p =
    Generated.constraint_count p - (2 * p.Generated.g_subsystems) - 1
  in
  let base = Generated.default_params ~subsystems:4 ~vars:2 in
  Alcotest.(check int) "ring n=4 has 4 couplings" 4 (count_edges base);
  Alcotest.(check int) "star n=4 has 3 couplings" 3
    (count_edges { base with Generated.g_topology = Generated.Star });
  Alcotest.(check int) "random-0 is the spanning chain" 3
    (count_edges { base with Generated.g_topology = Generated.Random 0. });
  Alcotest.(check int) "random-1 is the complete graph" 6
    (count_edges { base with Generated.g_topology = Generated.Random 1. });
  Alcotest.(check int) "coupling adds round(c*n) edges" 6
    (count_edges { base with Generated.g_coupling = 0.5 });
  (* non-default knobs still elaborate and keep the witness satisfiable *)
  let p =
    { base with Generated.g_topology = Generated.Star;
      g_coupling = 0.5; g_slack_jitter = 0.5 }
  in
  let scenario = Generated.scenario p in
  let dpm = scenario.Scenario.sc_build ~mode:Dpm.Conventional in
  let net = Dpm.network dpm in
  for i = 0 to 3 do
    for j = 0 to 1 do
      Network.assign net (Printf.sprintf "x%d_%d" i j) (Value.Num 5.)
    done
  done;
  List.iter
    (fun (prop, model) ->
      let v = Expr.eval (fun name ->
          match Network.assigned_num net name with
          | Some x -> x
          | None -> Alcotest.fail (name ^ " unbound")) model
      in
      Network.assign net prop (Value.Num v))
    scenario.Scenario.sc_models;
  Alcotest.(check bool) "witness satisfies star+coupling+jitter" true
    (Network.solved net)

let test_generated_canonical_artifact () =
  (* the scenario's name is its spec, and resolving that spec on a fresh
     parse yields the identical DDDL text: same spec -> same artifact *)
  let p =
    { (Generated.default_params ~subsystems:3 ~vars:2) with
      Generated.g_seed = 11; g_topology = Generated.Random 0.5;
      g_coupling = 0.3; g_slack_jitter = 0.2 }
  in
  let scenario = Generated.scenario p in
  let spec = Generated.spec_of_params p in
  Alcotest.(check string) "scenario named by spec" ("gen:" ^ spec)
    scenario.Scenario.sc_name;
  match Generated.params_of_spec spec with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    Alcotest.(check string) "same spec, same DDDL text" (Generated.source p)
      (Generated.source p')

let qcheck_generated_sources =
  (* 100 random parameter points: the emitted DDDL must round-trip
     (Printer.checked raises otherwise) and the spec string must be the
     identity on params *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 5 in
      let* k = int_range 1 3 in
      let* seed = int_bound 1000 in
      let* slack = float_range 0.05 0.5 in
      let* jitter = float_range 0. 0.9 in
      let* coupling = float_range 0. 1. in
      let* topology =
        oneof
          [
            return Generated.Ring;
            return Generated.Star;
            map (fun p -> Generated.Random p) (float_range 0. 1.);
          ]
      in
      return
        { Generated.g_subsystems = n; g_vars_per_subsystem = k; g_seed = seed;
          g_slack = slack; g_topology = topology; g_coupling = coupling;
          g_slack_jitter = jitter })
  in
  QCheck.Test.make ~name:"generated specs emit round-tripping DDDL" ~count:100
    (QCheck.make ~print:Generated.spec_of_params gen)
    (fun p ->
      let src = Generated.source p in
      String.length src > 0
      && Generated.params_of_spec (Generated.spec_of_params p) = Ok p)

(* {2 Registry} *)

let expect_unresolvable name ~sub =
  match Registry.resolve name with
  | _ -> Alcotest.failf "%S resolved but should not" name
  | exception Invalid_argument msg ->
    if not (contains msg sub) then
      Alcotest.failf "%S: error %S does not mention %S" name msg sub

let test_registry_builtin () =
  let s = Registry.resolve "lna" in
  Alcotest.(check string) "plain name resolves" "lna" s.Scenario.sc_name;
  (match Registry.resolve_result "sensor" with
  | Ok s -> Alcotest.(check string) "result form" "sensor" s.Scenario.sc_name
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "four builtins" 4 (List.length Registry.builtin)

let test_registry_gen () =
  (* a partial spec resolves; its canonical name resolves back to the
     exact same artifact (the trace-header round trip) *)
  let s = Registry.resolve "gen:n=3,k=2,seed=7" in
  Alcotest.(check bool) "named by canonical spec" true
    (contains s.Scenario.sc_name "gen:n=3,k=2,seed=7");
  let s' = Registry.resolve s.Scenario.sc_name in
  Alcotest.(check string) "canonical name is a fixed point"
    s.Scenario.sc_name s'.Scenario.sc_name;
  match Generated.params_of_spec (String.sub s.Scenario.sc_name 4
                                    (String.length s.Scenario.sc_name - 4))
  with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check int) "seed carried through" 7 p.Generated.g_seed

let test_registry_file () =
  let path = Filename.temp_file "adpm_registry" ".dddl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc Lna.source);
      let s = Registry.resolve ("file:" ^ path) in
      Alcotest.(check string) "named by its reference" ("file:" ^ path)
        s.Scenario.sc_name;
      let from_file = s.Scenario.sc_build ~mode:Dpm.Adpm in
      let builtin = Lna.scenario.Scenario.sc_build ~mode:Dpm.Adpm in
      Alcotest.(check int) "same network as the builtin twin"
        (Network.constraint_count (Dpm.network builtin))
        (Network.constraint_count (Dpm.network from_file)))

let test_registry_failures () =
  (* the three failure classes are distinct, descriptive errors *)
  expect_unresolvable "nonesuch" ~sub:"unknown scenario nonesuch";
  expect_unresolvable "nonesuch" ~sub:"gen:<spec>";
  expect_unresolvable "gen:frobs=1" ~sub:"malformed gen: spec";
  expect_unresolvable "gen:frobs=1" ~sub:"unknown field";
  expect_unresolvable "file:/nonexistent/no.dddl"
    ~sub:"cannot read scenario file";
  let path = Filename.temp_file "adpm_registry" ".dddl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "scenario broken { properties {");
      expect_unresolvable ("file:" ^ path) ~sub:"does not elaborate")

let test_registry_fingerprint_reproduction () =
  (* acceptance: the gen: name a run records in its trace header is
     enough for a fresh process to rebuild the scenario and reproduce the
     run bit-for-bit — replay resolves through the registry only *)
  let p =
    { (Generated.default_params ~subsystems:3 ~vars:2) with
      Generated.g_seed = 13; g_topology = Generated.Star; g_coupling = 0.4 }
  in
  let scenario = Generated.scenario p in
  let buffer, sink = Adpm_trace.Sink.collector () in
  let tracer = Adpm_trace.Tracer.create sink in
  let cfg = Config.default ~mode:Dpm.Adpm ~seed:2 in
  let _ = Engine.run ~tracer cfg scenario in
  Adpm_trace.Tracer.close tracer;
  let events = Adpm_trace.Sink.Collect.contents buffer in
  (match events with
  | { Adpm_trace.Event.event = Adpm_trace.Event.Run_started { scenario; _ }; _ }
    :: _ ->
    Alcotest.(check string) "header records the spec"
      ("gen:" ^ Generated.spec_of_params p) scenario
  | _ -> Alcotest.fail "first event must be run_started");
  let report = Replay.run ~resolve:Registry.resolve events in
  if not (Replay.converged report) then
    Alcotest.failf "registry-resolved replay diverged:\n%s"
      (Replay.render report)

(* {2 Bound shaving} *)

let shaving_fixture () =
  (* the mid-design receiver state where hull consistency is weak *)
  let dpm = (Receiver.with_req_gain 2000.).Scenario.sc_build ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  Network.assign net "bias-current" (Value.Num 9.);
  Network.assign net "mixer-gm" (Value.Num 18.);
  net

let mean_window net outcome =
  let widths =
    List.filter_map
      (fun name ->
        let initial = Network.initial_domain net name in
        if Network.is_bound net name || not (Domain.is_numeric initial) then None
        else
          Some
            (Domain.relative_measure ~initial
               outcome.Propagate.feasible.(Network.prop_id net name)))
      (Network.prop_names net)
  in
  List.fold_left ( +. ) 0. widths /. float_of_int (List.length widths)

let test_shaving_tightens () =
  let net = shaving_fixture () in
  let hull = Propagate.run ~consistency:`Hull net in
  let shaved = Propagate.run ~consistency:(`Shave 4) net in
  Alcotest.(check bool) "strictly narrower windows" true
    (mean_window net shaved < mean_window net hull -. 0.01);
  Alcotest.(check bool) "more evaluations" true
    (shaved.Propagate.evaluations > hull.Propagate.evaluations)

let test_shaving_sound () =
  (* shaving must not remove the witness solution *)
  let dpm = Receiver.scenario.Scenario.sc_build ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  let witness =
    [
      ("diff-pair-w", 4.); ("freq-ind", 0.2); ("bias-current", 4.);
      ("load-res", 1.); ("mixer-gm", 5.); ("mixer-bias", 2.);
      ("lna-gain", 40.); ("lna-power", 140.); ("lna-zin", 50.);
      ("mixer-gain", 7.5); ("mixer-power", 24.); ("beam-length", 13.);
      ("beam-width", 2.); ("beam-thickness", 2.25); ("gap", 0.5);
      ("resonator-q", 2000.); ("drive-v", 10.); ("center-freq", 100.);
      ("filter-bw", 1.); ("insertion-att", 1.37); ("filter-power", 4.);
      ("freq-precision", 1.9);
    ]
  in
  let outcome = Propagate.run ~consistency:(`Shave 8) net in
  List.iter
    (fun (prop, v) ->
      let d = outcome.Propagate.feasible.(Network.prop_id net prop) in
      match Domain.hull d with
      | Some iv ->
        Alcotest.(check bool)
          (Printf.sprintf "witness %s=%g survives shaving" prop v)
          true
          (Interval.mem v (Iv_tol.inflate 1e-6 iv))
      | None -> Alcotest.fail (prop ^ " wiped out"))
    witness

let test_shaving_validation () =
  let net = shaving_fixture () in
  Alcotest.(check bool) "1 slice rejected" true
    (try
       ignore (Propagate.run ~consistency:(`Shave 1) net);
       false
     with Invalid_argument _ -> true)

(* {2 Indirect alpha/beta (the 2.3.2 extension)}

   Network.alpha/beta stay direct: a constraint one hop away does not
   count. The extension lives in the designer's influence table. *)

let test_indirect_beta () =
  let net = Network.create () in
  Network.add_prop net "a" (Domain.continuous 0. 1.);
  Network.add_prop net "b" (Domain.continuous 0. 1.);
  Network.add_prop net "c" (Domain.continuous 0. 1.);
  let v = Expr.var in
  let c1 = Network.add_constraint net ~name:"ab" (v "a") Constr.Le (v "b") in
  let c2 = Network.add_constraint net ~name:"bc" (v "b") Constr.Le (v "c") in
  let _c3 = Network.add_constraint net ~name:"cc" (v "c") Constr.Le (Expr.const 1.) in
  Alcotest.(check int) "direct beta a" 1 (Network.beta net "a");
  Network.set_status net c2.Constr.id Constr.Violated;
  Alcotest.(check int) "direct alpha a does not" 0 (Network.alpha net "a");
  ignore c1

(* {2 Forward orderings} *)

let test_forward_orderings_complete () =
  List.iter
    (fun ordering ->
      List.iter
        (fun mode ->
          let cfg = Config.default ~mode ~seed:4 in
          let cfg = { cfg with Config.forward_ordering = ordering } in
          let outcome = Engine.run cfg Sensor.scenario in
          Alcotest.(check bool) "completes" true
            outcome.Engine.o_summary.Metrics.s_completed)
        [ Dpm.Conventional; Dpm.Adpm ])
    [ Config.Smallest_subspace; Config.Most_constrained; Config.Random_target ]

(* {2 Export} *)

let sample_summary () =
  let cfg = Config.default ~mode:Dpm.Adpm ~seed:1 in
  (Engine.run cfg Simple.scenario).Engine.o_summary

let test_export_csv () =
  let s = sample_summary () in
  let csv = Export.profile_csv s in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row per record"
    (1 + List.length s.Metrics.s_profile)
    (List.length lines);
  Alcotest.(check bool) "header" true
    (String.length (List.hd lines) > 0 && contains (List.hd lines) "designer")

let test_export_json () =
  let s = sample_summary () in
  let json = Export.summary_json s in
  Alcotest.(check bool) "has scenario field" true (contains json {|"scenario":"simple"|});
  Alcotest.(check bool) "has profile array" true (contains json {|"profile":[|});
  (* crude structural sanity: balanced braces and brackets *)
  let count c = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 json in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']')

let test_export_csv_escaping () =
  Alcotest.(check bool) "quotes doubled" true
    (contains
       (Export.runs_csv
          [
            {
              Metrics.s_scenario = "we,ird\"name";
              s_mode = Dpm.Adpm;
              s_seed = 1;
              s_completed = true;
              s_operations = 1;
              s_evaluations = 1;
              s_spins = 0;
              s_faults = Metrics.no_faults;
              s_profile = [];
            };
          ])
       "\"we,ird\"\"name\"")

(* {2 Scaling experiment} *)

let test_scaling_smoke () =
  let r = Adpm_experiments.Exp_scaling.run ~seeds:2 () in
  Alcotest.(check int) "five size points" 5
    (List.length r.Adpm_experiments.Exp_scaling.by_size);
  Alcotest.(check int) "four tightness points" 4
    (List.length r.Adpm_experiments.Exp_scaling.by_tightness);
  let points =
    r.Adpm_experiments.Exp_scaling.by_size
    @ r.Adpm_experiments.Exp_scaling.by_tightness
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p.Adpm_experiments.Exp_scaling.label ^ " completed")
        true p.Adpm_experiments.Exp_scaling.completed)
    points;
  Alcotest.(check (list string))
    "points (label: conv ops, ADPM ops, conv evals, ADPM evals, completed)"
    [
      "2 subsystems x 2 vars: 0x1.cp+4 0x1p+2 0x1.1p+5 0x1.44p+6 true";
      "3 subsystems x 2 vars: 0x1.04p+5 0x1.ep+2 0x1.6cp+5 0x1.efp+7 true";
      "4 subsystems x 3 vars: 0x1.74p+5 0x1.48p+4 0x1.dcp+5 0x1.156p+10 true";
      "6 subsystems x 3 vars: 0x1.3p+6 0x1.ap+4 0x1.7ep+6 0x1.bb6p+10 true";
      "8 subsystems x 4 vars: 0x1.66p+6 0x1.28p+5 0x1.8cp+6 0x1.2f3p+11 true";
      "slack 30%: 0x1.18p+4 0x1.ap+3 0x1.ap+3 0x1.858p+8 true";
      "slack 15%: 0x1.18p+4 0x1.dp+3 0x1.ap+3 0x1.07p+9 true";
      "slack 8%: 0x1.5cp+5 0x1p+4 0x1.cp+5 0x1.f3p+9 true";
      "slack 5%: 0x1.88p+5 0x1.48p+4 0x1.f8p+5 0x1.f2p+9 true";
    ]
    (List.map
       (fun (p : Adpm_experiments.Exp_scaling.point) ->
         Printf.sprintf "%s: %h %h %h %h %b" p.label p.conv_ops p.adpm_ops
           p.conv_evals p.adpm_evals p.completed)
       points);
  (* at two seeds per point individual ratios are noisy; the aggregate
     acceleration must still be clear *)
  let mean_ratio =
    List.fold_left (fun a p -> a +. p.Adpm_experiments.Exp_scaling.ops_ratio) 0.
      points
    /. float_of_int (List.length points)
  in
  Alcotest.(check bool) "ADPM accelerates on average" true (mean_ratio > 1.2);
  Alcotest.(check bool) "render works" true
    (String.length (Adpm_experiments.Exp_scaling.render r) > 0)

let suite =
  [
    ("generated scenario counts", `Quick, test_generated_counts);
    ("generated scenario determinism", `Quick, test_generated_deterministic);
    ("generated witness satisfiable", `Quick, test_generated_witness_satisfiable);
    ("generated scenarios complete", `Slow, test_generated_completes);
    ("generated validation", `Quick, test_generated_validation);
    ("generated spec round-trip", `Quick, test_generated_spec_roundtrip);
    ("generated topologies", `Quick, test_generated_topologies);
    ("generated canonical artifact", `Quick, test_generated_canonical_artifact);
    QCheck_alcotest.to_alcotest qcheck_generated_sources;
    ("registry: builtins", `Quick, test_registry_builtin);
    ("registry: gen references", `Quick, test_registry_gen);
    ("registry: file references", `Quick, test_registry_file);
    ("registry: failure classes", `Quick, test_registry_failures);
    ( "registry: fingerprint reproduction",
      `Quick,
      test_registry_fingerprint_reproduction );
    ("shaving tightens windows", `Quick, test_shaving_tightens);
    ("shaving preserves witnesses", `Quick, test_shaving_sound);
    ("shaving validation", `Quick, test_shaving_validation);
    ("indirect alpha/beta", `Quick, test_indirect_beta);
    ("all forward orderings complete", `Slow, test_forward_orderings_complete);
    ("export: profile CSV", `Quick, test_export_csv);
    ("export: summary JSON", `Quick, test_export_json);
    ("export: CSV escaping", `Quick, test_export_csv_escaping);
    ("scaling experiment smoke", `Slow, test_scaling_smoke);
  ]
