(* The fault-injection layer's contracts.

   The load-bearing one: a zero-rate fault plan is structurally
   [Fault.none], so the engine takes the fault-free path — no Rng split,
   no fate draws — and stays bit-identical (full summary, per-op profile
   included) to the lockstep fixture of test_golden.ml across every
   scenario, both modes and a spread of seeds. Then plan algebra and
   parsing, and the faulty behaviours: every knob is live, runs are pure
   functions of their seed, recorded faulty traces replay and converge,
   and a crashed designer's believed-status table is rebuilt only from
   post-restart deliveries. *)

open Adpm_core
open Adpm_teamsim
open Adpm_scenarios
open Adpm_trace
module Fault = Adpm_fault.Fault

let scenarios =
  [
    Simple.scenario;
    Lna.scenario;
    Sensor.scenario;
    Receiver.scenario;
    Generated.scenario (Generated.default_params ~subsystems:4 ~vars:3);
  ]

(* the same plan [Fault.none] denotes, built field by field as the CLI
   does from all-default flags *)
let zero_plan = { Fault.p_drop = 0.; p_dup = 0.; p_jitter = 0; p_crashes = [] }

let cfg ?(faults = Fault.none) ?(latency = 0) mode seed =
  { (Config.default ~mode ~seed) with Config.max_ops = 500; latency; faults }

(* {2 Plan algebra and parsing} *)

let test_plan_none_and_validate () =
  Alcotest.(check bool) "zero-rate plan is none" true (Fault.is_none zero_plan);
  Alcotest.(check bool)
    "drop 0.1 is not none" false
    (Fault.is_none { zero_plan with Fault.p_drop = 0.1 });
  Alcotest.(check bool) "none validates" true
    (Result.is_ok (Fault.validate Fault.none));
  List.iter
    (fun (label, plan) ->
      match Fault.validate plan with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s: expected a validation error" label)
    [
      ("drop > 1", { zero_plan with Fault.p_drop = 1.5 });
      ("negative dup", { zero_plan with Fault.p_dup = -0.1 });
      ("nan drop", { zero_plan with Fault.p_drop = Float.nan });
      ("negative jitter", { zero_plan with Fault.p_jitter = -1 });
      ( "zero recovery",
        {
          zero_plan with
          Fault.p_crashes =
            [ { Fault.cr_designer = "a"; cr_at = 3; cr_recover = 0 } ];
        } );
      ( "negative crash time",
        {
          zero_plan with
          Fault.p_crashes =
            [ { Fault.cr_designer = "a"; cr_at = -1; cr_recover = 2 } ];
        } );
      ( "empty designer name",
        {
          zero_plan with
          Fault.p_crashes =
            [ { Fault.cr_designer = ""; cr_at = 1; cr_recover = 2 } ];
        } );
    ]

let test_crash_plan_string_roundtrip () =
  let crashes =
    [
      { Fault.cr_designer = "alice"; cr_at = 12; cr_recover = 5 };
      { Fault.cr_designer = "bob"; cr_at = 30; cr_recover = 10 };
    ]
  in
  let s = Fault.crashes_to_string crashes in
  (match Fault.crashes_of_string s with
  | Ok parsed ->
    Alcotest.(check bool) (s ^ " round-trips") true (parsed = crashes)
  | Error e -> Alcotest.failf "%s failed to parse back: %s" s e);
  (match Fault.crashes_of_string "" with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty string should be the empty plan");
  List.iter
    (fun garbage ->
      match Fault.crashes_of_string garbage with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "garbage %S parsed" garbage)
    [ "alice"; "alice@"; "alice@x+1"; "alice@3"; "alice@3+"; "@3+1" ];
  (* a trailing separator is tolerated, like a trailing comma in a list *)
  match Fault.crashes_of_string "a@3+1;" with
  | Ok [ { Fault.cr_designer = "a"; cr_at = 3; cr_recover = 1 } ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "trailing semicolon should be tolerated"

(* {2 Zero-fault bit-identity with the lockstep fixture} *)

let test_zero_fault_bit_identity () =
  Test_golden.check_lockstep_fixture
    ~adjust:(fun c -> { c with Config.faults = zero_plan })
    ()

(* {2 Knobs are live and runs are seed-deterministic} *)

let faults_of summary = summary.Metrics.s_faults

(* A knob "works" when some seed in a small window exercises it; a fixed
   single seed would make the test hostage to one random draw. *)
let exists_seed pred =
  List.exists
    (fun seed -> pred (Engine.run (cfg Dpm.Adpm seed) Sensor.scenario))
    [ 1; 2; 3; 4; 5 ]

let test_drop_knob_is_live () =
  let plan = { zero_plan with Fault.p_drop = 0.5 } in
  Alcotest.(check bool) "some seed drops a notification" true
    (List.exists
       (fun seed ->
         let s =
           (Engine.run (cfg ~faults:plan Dpm.Adpm seed) Sensor.scenario)
             .Engine.o_summary
         in
         (faults_of s).Metrics.f_dropped > 0)
       [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check bool) "fault-free runs report zero faults" true
    (exists_seed (fun o ->
         faults_of o.Engine.o_summary = Metrics.no_faults))

let test_dup_knob_is_live () =
  let plan = { zero_plan with Fault.p_dup = 0.6 } in
  Alcotest.(check bool) "some seed duplicates a notification" true
    (List.exists
       (fun seed ->
         let s =
           (Engine.run (cfg ~faults:plan Dpm.Adpm seed) Sensor.scenario)
             .Engine.o_summary
         in
         (faults_of s).Metrics.f_duplicated > 0)
       [ 1; 2; 3; 4; 5 ])

let first_designer scenario =
  match Dpm.designers (scenario.Scenario.sc_build ~mode:Dpm.Adpm) with
  | first :: _ -> first
  | [] -> Alcotest.fail "scenario has no designers"

let crash_plan ?(at = 2) ?(recover = 8) scenario =
  {
    zero_plan with
    Fault.p_crashes =
      [
        {
          Fault.cr_designer = first_designer scenario;
          cr_at = at;
          cr_recover = recover;
        };
      ];
  }

let test_crash_knob_is_live () =
  let plan = crash_plan Sensor.scenario in
  let s =
    (Engine.run (cfg ~faults:plan Dpm.Conventional 3) Sensor.scenario)
      .Engine.o_summary
  in
  Alcotest.(check int) "the scheduled crash fired" 1
    (faults_of s).Metrics.f_crashes

let test_unknown_crash_designer_rejected () =
  let plan =
    {
      zero_plan with
      Fault.p_crashes =
        [ { Fault.cr_designer = "nobody"; cr_at = 1; cr_recover = 1 } ];
    }
  in
  match Engine.run (cfg ~faults:plan Dpm.Adpm 1) Sensor.scenario with
  | (_ : Engine.outcome) -> Alcotest.fail "unknown designer accepted"
  | exception Invalid_argument msg ->
    let contains haystack needle =
      let nl = String.length needle and hl = String.length haystack in
      let rec go i =
        i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "names the designer" true (contains msg "nobody")

let summary_testable =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Metrics.summary_line s))
    ( = )

let test_faulty_runs_are_seed_deterministic () =
  let plan =
    {
      Fault.p_drop = 0.25;
      p_dup = 0.2;
      p_jitter = 3;
      p_crashes = (crash_plan ~at:3 ~recover:6 Sensor.scenario).Fault.p_crashes;
    }
  in
  List.iter
    (fun mode ->
      List.iter
        (fun seed ->
          let once =
            (Engine.run (cfg ~faults:plan ~latency:1 mode seed)
               Sensor.scenario)
              .Engine.o_summary
          in
          let again =
            (Engine.run (cfg ~faults:plan ~latency:1 mode seed)
               Sensor.scenario)
              .Engine.o_summary
          in
          Alcotest.check summary_testable
            (Printf.sprintf "%s seed %d replays bit-identically"
               (Dpm.mode_to_string mode) seed)
            once again)
        [ 1; 2; 3 ])
    [ Dpm.Adpm; Dpm.Conventional ]

(* {2 Faulty traces record and replay} *)

let test_faulty_trace_replays () =
  let plan =
    {
      Fault.p_drop = 0.3;
      p_dup = 0.2;
      p_jitter = 2;
      p_crashes = (crash_plan Sensor.scenario).Fault.p_crashes;
    }
  in
  let buffer, sink = Sink.collector () in
  let tracer = Tracer.create sink in
  let outcome =
    Engine.run ~tracer (cfg ~faults:plan ~latency:1 Dpm.Conventional 2)
      Sensor.scenario
  in
  Tracer.close tracer;
  let events = Sink.Collect.contents buffer in
  let kinds = List.map (fun e -> Event.kind_label e.Event.event) events in
  Alcotest.(check bool) "trace records a designer crash" true
    (List.mem "designer_crashed" kinds);
  Alcotest.(check bool) "trace records the matching restart" true
    (List.mem "designer_restarted" kinds);
  Alcotest.(check bool) "trace records dropped notifications" true
    ((faults_of outcome.Engine.o_summary).Metrics.f_dropped = 0
    || List.mem "notification_dropped" kinds);
  let report = Replay.run ~resolve:(Scenario.resolver scenarios) events in
  Alcotest.(check bool) "faulty trace replays and converges" true
    (Replay.converged report)

(* {2 Crash/restart semantics at the designer level} *)

let test_restart_loses_believed_statuses () =
  let scenario = Sensor.scenario in
  let dpm = scenario.Scenario.sc_build ~mode:Dpm.Adpm in
  ignore (Dpm.run_propagation dpm);
  let c = Config.default ~mode:Dpm.Adpm ~seed:5 in
  let influence = Compiled.influence (Scenario.compiled scenario ~mode:Dpm.Adpm) in
  let designers =
    List.map
      (fun name ->
        Designer.create c ~rng:(Adpm_util.Rng.create 5) ~influence name)
      (Dpm.designers dpm)
  in
  List.iter
    (fun d -> Designer.learn_statuses d (Dpm.known_statuses dpm))
    designers;
  (* restart one designer that is actually able to act right now *)
  let d, op =
    match
      List.find_map
        (fun d ->
          Option.map (fun op -> (d, op)) (Designer.choose_operation d dpm))
        designers
    with
    | Some pair -> pair
    | None -> Alcotest.fail "no designer can act at kickoff"
  in
  Alcotest.(check bool) "kickoff seeds the believed table" true
    (Designer.believed_snapshot d <> []);
  Designer.restart d;
  Alcotest.(check bool) "restart wipes the table" true
    (Designer.believed_snapshot d = []);
  (* a post-restart delivery is the only thing that repopulates it *)
  let result = Dpm.apply dpm op in
  Designer.deliver d ~own:false op result;
  let absorbed = Designer.drain d dpm in
  Alcotest.(check int) "one queued delivery absorbed" 1 absorbed;
  let rebuilt = Designer.believed_snapshot d in
  let touched =
    List.sort_uniq compare
      (List.map (fun (cid, _, _) -> cid) result.Dpm.r_status_changes)
  in
  Alcotest.(check (list int))
    "rebuilt beliefs come only from the post-restart delivery" touched
    (List.sort compare (List.map fst rebuilt))

(* {2 Engine crash produces degraded-but-recovering runs} *)

let test_crash_then_recovery_completes () =
  (* With a mid-run crash window the run must still terminate (the idle
     team waits out the recovery rather than halting), and the outcome
     stays a pure function of the seed. *)
  let plan = crash_plan ~at:4 ~recover:10 Sensor.scenario in
  List.iter
    (fun mode ->
      let a =
        (Engine.run (cfg ~faults:plan mode 7) Sensor.scenario)
          .Engine.o_summary
      in
      let b =
        (Engine.run (cfg ~faults:plan mode 7) Sensor.scenario)
          .Engine.o_summary
      in
      Alcotest.(check int)
        (Dpm.mode_to_string mode ^ ": crash fired")
        1 (faults_of a).Metrics.f_crashes;
      Alcotest.check summary_testable
        (Dpm.mode_to_string mode ^ ": deterministic")
        a b)
    [ Dpm.Adpm; Dpm.Conventional ]

let suite =
  [
    ("plan none and validate", `Quick, test_plan_none_and_validate);
    ("crash plan string round-trip", `Quick, test_crash_plan_string_roundtrip);
    ("zero-fault bit-identity", `Slow, test_zero_fault_bit_identity);
    ("drop knob is live", `Quick, test_drop_knob_is_live);
    ("dup knob is live", `Quick, test_dup_knob_is_live);
    ("crash knob is live", `Quick, test_crash_knob_is_live);
    ("unknown crash designer rejected", `Quick,
     test_unknown_crash_designer_rejected);
    ("faulty runs are seed-deterministic", `Quick,
     test_faulty_runs_are_seed_deterministic);
    ("faulty trace replays", `Quick, test_faulty_trace_replays);
    ("restart loses believed statuses", `Quick,
     test_restart_loses_believed_statuses);
    ("crash then recovery completes", `Quick, test_crash_then_recovery_completes);
  ]
