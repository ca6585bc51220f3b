(* The discrete-event engine's contracts.

   The load-bearing one: at latency 0 Engine.run is bit-identical —
   whole summary, per-op profile and makespan — to the lockstep loop it
   replaced, across every scenario, both modes and a spread of seeds, as
   recorded in the lockstep fixture of test_golden.ml. Then the duration
   model stretches the clock without changing the outcome at latency 0,
   and the latency > 0 behaviours: delivery timestamps strictly after the
   originating operation, determinism, replayability, and the virtual
   makespan. *)

open Adpm_core
open Adpm_teamsim
open Adpm_scenarios
open Adpm_trace

let scenarios =
  [
    Simple.scenario;
    Lna.scenario;
    Sensor.scenario;
    Receiver.scenario;
    Generated.scenario (Generated.default_params ~subsystems:4 ~vars:3);
  ]

let cfg ?(latency = 0) ?(duration_model = Adpm_sim.Model.unit_duration) mode
    seed =
  {
    (Config.default ~mode ~seed) with
    Config.max_ops = 500;
    latency;
    duration_model;
  }

(* {2 Latency-0 equivalence} *)

let test_latency0_equivalence () = Test_golden.check_lockstep_fixture ()

let test_duration_model_invariant_at_latency0 () =
  let stretched =
    Adpm_sim.Model.Per_kind
      { dm_synthesis = 3; dm_verification = 7; dm_decompose = 2 }
  in
  List.iter
    (fun mode ->
      let plain = (Engine.run (cfg mode 2) Sensor.scenario).Engine.o_summary in
      let slow =
        (Engine.run (cfg ~duration_model:stretched mode 2) Sensor.scenario)
          .Engine.o_summary
      in
      Alcotest.(check bool)
        (Dpm.mode_to_string mode
        ^ ": durations stretch the clock, not the outcome")
        true (plain = slow))
    [ Dpm.Adpm; Dpm.Conventional ]

let test_makespan_counts_ops_at_unit_duration () =
  let outcome = Engine.run (cfg Dpm.Adpm 1) Sensor.scenario in
  Alcotest.(check int) "makespan = operation count (uniform:1, latency 0)"
    outcome.Engine.o_summary.Metrics.s_operations outcome.Engine.o_makespan

let test_engine_validates_config () =
  let bad = { (cfg Dpm.Adpm 1) with Config.max_ops = 0 } in
  match Engine.run bad Simple.scenario with
  | (_ : Engine.outcome) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* {2 Latency > 0} *)

let traced_run c scenario =
  let buffer, sink = Sink.collector () in
  let tracer = Tracer.create sink in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Tracer.close tracer)
      (fun () -> Engine.run ~tracer c scenario)
  in
  (outcome, Sink.Collect.contents buffer)

let test_latency_delivery_timestamps () =
  let latency = 3 in
  let c = cfg ~latency Dpm.Adpm 1 in
  let _, events = traced_run c Sensor.scenario in
  let completions = Hashtbl.create 64 in
  List.iter
    (fun { Event.event; _ } ->
      match event with
      | Event.Op_completed { index; at } -> Hashtbl.replace completions index at
      | _ -> ())
    events;
  Alcotest.(check bool) "trace has completions" true
    (Hashtbl.length completions > 0);
  let deliveries =
    List.filter_map
      (fun { Event.event; _ } ->
        match event with
        | Event.Notification_delivered { op_index; sent_at; delivered_at; _ } ->
          Some (op_index, sent_at, delivered_at)
        | _ -> None)
      events
  in
  Alcotest.(check bool) "trace has teammate deliveries" true
    (deliveries <> []);
  List.iter
    (fun (op_index, sent_at, delivered_at) ->
      Alcotest.(check bool) "delivered strictly after the operation" true
        (delivered_at > sent_at);
      Alcotest.(check int) "transit time is the configured latency" latency
        (delivered_at - sent_at);
      match Hashtbl.find_opt completions op_index with
      | Some at ->
        Alcotest.(check int) "sent when the operation completed" at sent_at
      | None -> Alcotest.fail "delivery references an unknown operation")
    deliveries;
  let report = Analyze.analyze events in
  Alcotest.(check int) "analyzer counts the deliveries"
    (List.length deliveries) report.Analyze.r_deliveries;
  Alcotest.(check (float 1e-9)) "analyzer mean transit" (float_of_int latency)
    report.Analyze.r_delivery_latency_mean;
  Alcotest.(check bool) "analyzer sees a positive makespan" true
    (report.Analyze.r_makespan > 0)

let test_latency_deterministic () =
  let c = cfg ~latency:2 Dpm.Conventional 7 in
  let o1, t1 = traced_run c Sensor.scenario in
  let o2, t2 = traced_run c Sensor.scenario in
  Alcotest.(check bool) "same summary" true
    (o1.Engine.o_summary = o2.Engine.o_summary);
  Alcotest.(check bool) "same trace, event for event" true
    (List.map Codec.to_line t1 = List.map Codec.to_line t2)

let test_latency_trace_replays () =
  let c = cfg ~latency:2 Dpm.Adpm 3 in
  let _, events = traced_run c Sensor.scenario in
  let report = Replay.run ~resolve:(Scenario.resolver scenarios) events in
  Alcotest.(check bool) "latency trace replays and converges" true
    (Replay.converged report)

let test_latency_changes_conventional_run () =
  (* a sanity check that the knob is live: some scenario/seed must react
     to a large notification lag *)
  let differs =
    List.exists
      (fun seed ->
        let at latency =
          (Engine.run (cfg ~latency Dpm.Conventional seed) Sensor.scenario)
            .Engine.o_summary
        in
        at 0 <> at 8)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "latency 8 alters at least one run" true differs

(* {2 Requirement shifts — the adaptability workload} *)

let gen_scenario = Generated.scenario (Generated.default_params ~subsystems:3 ~vars:2)

(* in-range for gen:n=3,k=2's p_budget (initial range 1 .. 2*budget);
   tight enough that the team must re-work after the shift *)
let squeeze = Shift.{ sh_prop = "p_budget"; sh_value = 20.; sh_at = 10 }

let shift_cfg ?(policy = Config.Endpoint) ?(shifts = []) mode seed =
  { (cfg mode seed) with Config.shifts; value_policy = policy }

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_shift_syntax () =
  let plan =
    match Shift.plan_of_string "p_budget>=140@30; gmin0>=9.5@60" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "two shifts" 2 (List.length plan);
  Alcotest.(check string)
    "round-trips" "p_budget>=140@30;gmin0>=9.5@60"
    (Shift.plan_to_string plan);
  List.iter
    (fun (bad, want) ->
      match Shift.plan_of_string bad with
      | Ok _ -> Alcotest.failf "%S parsed" bad
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error mentions %S" bad want)
          true (contains msg want))
    [
      ("p_budget>=140", "@TICK");
      (">=140@30", "names no property");
      ("p_budget>=x@30", "not a number");
      ("p_budget>=140@x", "not an integer");
      ("p_budget>=140@-3", ">= 0");
      ("p_budget=140@30", "PROP>=FLOOR@TICK");
    ]

let test_shift_run_replays () =
  let c = shift_cfg ~shifts:[ squeeze ] Dpm.Adpm 1 in
  let outcome, events = traced_run c gen_scenario in
  Alcotest.(check bool) "completed after the shift" true
    outcome.Engine.o_summary.Metrics.s_completed;
  let shift_events =
    List.filter
      (fun s ->
        match s.Event.event with
        | Event.Requirement_shifted _ -> true
        | _ -> false)
      events
  in
  Alcotest.(check int) "one shift event" 1 (List.length shift_events);
  Alcotest.(check int) "analyze counts it" 1
    (Analyze.analyze events).Analyze.r_shifts;
  (* the recorded name is gen:<spec>, so the registry re-resolves it *)
  let report = Replay.run ~resolve:Registry.resolve events in
  Alcotest.(check bool) "shifted trace replays and converges" true
    (Replay.converged report)

let test_shift_is_live_and_deterministic () =
  let run shifts =
    (Engine.run (shift_cfg ~shifts Dpm.Adpm 1) gen_scenario).Engine.o_summary
  in
  let plain = run [] and shifted = run [ squeeze ] in
  Alcotest.(check bool) "shift changes the run" true (plain <> shifted);
  Alcotest.(check bool) "same plan, same run" true (shifted = run [ squeeze ])

let test_shift_after_solve_still_halts () =
  (* a shift scheduled far past the solve: the team idles until it fires,
     re-checks, and the run still completes *)
  let loose = Shift.{ squeeze with sh_value = 40.; sh_at = 300 } in
  let outcome =
    Engine.run (shift_cfg ~shifts:[ loose ] Dpm.Adpm 1) gen_scenario
  in
  Alcotest.(check bool) "still completes" true
    outcome.Engine.o_summary.Metrics.s_completed;
  Alcotest.(check bool) "idled until the shift tick" true
    (outcome.Engine.o_makespan >= 300)

let test_conventional_pays_more_after_shift () =
  (* the adaptability asymmetry: the same squeeze costs the conventional
     team more operations than the ADPM team (staleness until the next
     verification vs immediate propagation) *)
  let ops mode =
    let s =
      (Engine.run
         { (shift_cfg ~shifts:[ squeeze ] mode 1) with Config.max_ops = 2000 }
         gen_scenario)
        .Engine.o_summary
    in
    Alcotest.(check bool)
      (Dpm.mode_to_string mode ^ " completes")
      true s.Metrics.s_completed;
    s.Metrics.s_operations
  in
  Alcotest.(check bool) "conventional needs more ops" true
    (ops Dpm.Conventional > ops Dpm.Adpm)

let test_shift_rejections () =
  let expect_invalid label f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "unknown property" (fun () ->
      Engine.run
        (shift_cfg
           ~shifts:[ Shift.{ squeeze with sh_prop = "nonesuch" } ]
           Dpm.Adpm 1)
        gen_scenario);
  expect_invalid "out-of-range value" (fun () ->
      Engine.run
        (shift_cfg
           ~shifts:[ Shift.{ squeeze with sh_value = 1e9 } ]
           Dpm.Adpm 1)
        gen_scenario)

(* {2 The headroom value policy} *)

let test_headroom_policy_runs () =
  List.iter
    (fun seed ->
      let c = shift_cfg ~policy:Config.Headroom Dpm.Adpm seed in
      Alcotest.(check bool)
        (Printf.sprintf "headroom seed %d completes" seed)
        true (Engine.run c gen_scenario).Engine.o_summary.Metrics.s_completed)
    [ 1; 2; 3 ]

let test_headroom_policy_is_live () =
  let at policy =
    (Engine.run (shift_cfg ~policy Dpm.Adpm 1) gen_scenario).Engine.o_summary
  in
  Alcotest.(check bool) "headroom differs from endpoint" true
    (at Config.Headroom <> at Config.Endpoint)

let test_headroom_trace_replays () =
  let c = shift_cfg ~policy:Config.Headroom ~shifts:[ squeeze ] Dpm.Adpm 1 in
  let _, events = traced_run c gen_scenario in
  let report = Replay.run ~resolve:Registry.resolve events in
  Alcotest.(check bool) "headroom+shift trace replays" true
    (Replay.converged report)

let suite =
  [
    ("latency-0 DES = lockstep (all scenarios)", `Slow,
     test_latency0_equivalence);
    ("duration model invariant at latency 0", `Slow,
     test_duration_model_invariant_at_latency0);
    ("makespan counts operations", `Quick,
     test_makespan_counts_ops_at_unit_duration);
    ("engine validates config", `Quick, test_engine_validates_config);
    ("delivery timestamps lag completions", `Quick,
     test_latency_delivery_timestamps);
    ("latency runs are deterministic", `Quick, test_latency_deterministic);
    ("latency traces replay", `Quick, test_latency_trace_replays);
    ("latency knob is live", `Slow, test_latency_changes_conventional_run);
    ("shift plan syntax", `Quick, test_shift_syntax);
    ("shifted run replays", `Quick, test_shift_run_replays);
    ("shift knob is live and deterministic", `Quick,
     test_shift_is_live_and_deterministic);
    ("post-solve shift still halts", `Quick, test_shift_after_solve_still_halts);
    ("conventional pays more after a shift", `Slow,
     test_conventional_pays_more_after_shift);
    ("bad shift plans are rejected", `Quick, test_shift_rejections);
    ("headroom policy runs", `Slow, test_headroom_policy_runs);
    ("headroom policy is live", `Quick, test_headroom_policy_is_live);
    ("headroom+shift trace replays", `Quick, test_headroom_trace_replays);
  ]
