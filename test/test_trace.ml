(* Tests for Adpm_trace and the replay driver: JSON codec round-trips,
   live capture through the engine, trace analysis, and deterministic
   replay across scenarios and modes. *)

open Adpm_core
open Adpm_teamsim
open Adpm_scenarios
open Adpm_trace

let quick_cfg mode seed =
  let cfg = Config.default ~mode ~seed in
  { cfg with Config.max_ops = 500 }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  scan 0

let stamp i event = { Event.seq = i; clock = i / 2; event }

(* One event of every constructor, with awkward payloads: non-ASCII and
   quoted strings, non-representable decimals, empty and non-empty lists. *)
let sample_events =
  let synthesis_op =
    {
      Event.op_designer = "desi\"gner, one\n(α)";
      op_problem = 3;
      op_kind =
        Event.Synthesis [ ("w1", Event.Vnum 0.1); ("mode", Event.Vsym "low") ];
      op_motivated_by = [ 2; 7 ];
    }
  in
  let decompose_op =
    {
      Event.op_designer = "lead";
      op_problem = 1;
      op_kind =
        Event.Decompose
          [
            {
              Event.sb_name = "rf front-end";
              sb_owner = "ann";
              sb_inputs = [ "f0" ];
              sb_outputs = [ "gain"; "nf" ];
              sb_constraints = [ 1; 4 ];
              sb_depends_on = [];
              sb_object = Some "lna";
            };
            {
              Event.sb_name = "baseband";
              sb_owner = "bob";
              sb_inputs = [];
              sb_outputs = [ "bw" ];
              sb_constraints = [];
              sb_depends_on = [ "rf front-end" ];
              sb_object = None;
            };
          ];
      op_motivated_by = [];
    }
  in
  let verification_op =
    {
      Event.op_designer = "ann";
      op_problem = 2;
      op_kind = Event.Verification [ 1; 2; 3 ];
      op_motivated_by = [ 1 ];
    }
  in
  List.mapi stamp
    [
      Event.Run_started
        { scenario = "lna"; mode = "ADPM"; seed = 42; engine = "incremental" };
      Event.Op_submitted { op = synthesis_op; choose_evaluations = 5 };
      Event.Op_submitted { op = decompose_op; choose_evaluations = 0 };
      Event.Op_submitted { op = verification_op; choose_evaluations = 1 };
      Event.Op_executed
        {
          index = 1;
          designer = "ann";
          kind = "synthesis";
          evaluations = 17;
          newly_violated = [ 4 ];
          resolved = [];
          skipped = [ 9 ];
          spin = true;
        };
      Event.Propagation_started { constraints = 21 };
      Event.Propagation_finished
        {
          engine = "incremental";
          seeded = 21;
          evaluations = 63;
          revisions = 63;
          waves = [ 21; 30; 12 ];
          empties = 1;
          fixpoint = true;
        };
      Event.Constraint_status_changed
        { cid = 4; old_status = Event.Consistent; new_status = Event.Violated };
      Event.Notification_pushed
        {
          recipient = "bob";
          op_index = 7;
          events = [ "violation-detected:4"; "feasible-reduced:bw" ];
          violations = [ 4 ];
        };
      Event.Op_completed { index = 7; at = 11 };
      Event.Turn_started { designer = "bob"; at = 12 };
      Event.Notification_delivered
        {
          recipient = "bob";
          op_index = 7;
          sent_at = 11;
          delivered_at = 14;
          events = [ "violation-detected:4" ];
          violations = [ 4 ];
        };
      Event.Designer_decision
        {
          designer = "bob";
          heuristic = Event.Smallest_subspace;
          target = Some "bw";
          alpha = 1;
          beta = 3;
        };
      Event.Designer_decision
        {
          designer = "ann";
          heuristic = Event.Conflict_resolution;
          target = None;
          alpha = 0;
          beta = 0;
        };
      Event.Requirement_shifted { prop = "p_budget"; value = 132.25; at = 30 };
      Event.Run_finished
        {
          completed = true;
          operations = 37;
          evaluations = 1042;
          setup_evaluations = 63;
          spins = 2;
          violations = [ 4; 6 ];
        };
    ]

(* {2 JSON} *)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Num 0.1;
      Json.Num (-3.25);
      Json.Num 1e17;
      Json.Num 123456789.;
      Json.Str "plain";
      Json.Str "qu\"ote,\ncomma — ünïcode";
      Json.Arr [ Json.Num 1.; Json.Str "x"; Json.Null ];
      Json.Obj [ ("a", Json.Arr []); ("b", Json.Obj [ ("c", Json.Bool false) ]) ];
    ]
  in
  List.iter
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" (Json.to_string j))
          true (j = j')
      | Error e -> Alcotest.failf "parse error on %s: %s" (Json.to_string j) e)
    samples

let test_json_escapes () =
  match Json.parse {|{"s":"aé\n\t\"\\b","n":-0.5e2}|} with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok j ->
    Alcotest.(check (option string))
      "unicode escape decoded"
      (Some "a\xc3\xa9\n\t\"\\b")
      (Option.bind (Json.member "s" j) Json.to_str);
    Alcotest.(check (option (float 1e-9)))
      "exponent" (Some (-50.))
      (Option.bind (Json.member "n" j) Json.to_float)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted garbage %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "trailing {} junk"; "\"unterminated" ]

(* {2 Hardened string decoding (PR 8 regressions)} *)

(* U+1F600 is JSON-escaped as the surrogate pair \uD83D \uDE00, which
   must decode to the single 4-byte UTF-8 sequence F0 9F 98 80 — not to
   two 3-byte CESU-8 sequences. *)
let test_json_surrogate_pairs () =
  (match Json.parse {|"\uD83D\uDE00"|} with
  | Ok (Json.Str s) ->
    Alcotest.(check string) "astral code point" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "surrogate pair rejected: %s" e);
  (* raw astral-plane UTF-8 must survive a print/parse cycle unchanged *)
  (match Json.parse (Json.to_string (Json.Str "\xf0\x9f\x98\x80 ok")) with
  | Ok (Json.Str s) -> Alcotest.(check string) "raw astral" "\xf0\x9f\x98\x80 ok" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "raw astral failed: %s" e);
  (* lone or mismatched surrogates are protocol corruption, not data *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted lone surrogate in %S" s
      | Error _ -> ())
    [
      {|"\uD83D"|};  (* lone high at end *)
      {|"\uD83Dx"|};  (* high followed by a plain char *)
      {|"\uD83D\n"|};  (* high followed by a non-\u escape *)
      {|"\uD83D\uD83D"|};  (* high followed by another high *)
      {|"\uDE00"|};  (* lone low *)
    ]

(* int_of_string accepts underscores, signs and nested 0x prefixes; the
   JSON grammar wants exactly four hex digits. *)
let test_json_strict_hex_escapes () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed escape in %S" s
      | Error _ -> ())
    [
      {|"\u1_23"|}; {|"\u-123"|}; {|"\u+123"|}; {|"\u0x41"|}; {|"\u12"|};
      {|"\u"|}; {|"\uGHIJ"|}; {|"\u 041"|};
    ];
  (match Json.parse {|"\u0041\u00e9\u4e16"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "BMP escapes" "A\xc3\xa9\xe4\xb8\x96" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "valid escapes rejected: %s" e)

(* Pin the documented encoder contract: non-finite floats inside Num
   print as null (and so round-trip to Null), finite floats round-trip
   exactly. *)
let test_json_nan_contract () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        "non-finite prints null" "null"
        (Json.to_string (Json.Num f));
      Alcotest.(check bool)
        "round-trips to Null" true
        (Json.parse (Json.to_string (Json.Num f)) = Ok Json.Null))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check bool)
    "finite round-trip" true
    (Json.parse (Json.to_string (Json.Num 0.30000000000000004))
    = Ok (Json.Num 0.30000000000000004))

(* {2 QCheck: codec round-trip fuzz} *)

let gen_json_string =
  (* adversarial strings: control chars, quotes, backslashes, multi-byte
     UTF-8 (including astral plane), mixed with plain ASCII *)
  QCheck.Gen.(
    let fragment =
      oneof
        [
          map (String.make 1) (char_range 'a' 'z');
          map (String.make 1) (char_range '\000' '\031');
          oneofl
            [
              "\""; "\\"; "/"; "\xc3\xa9"; "\xe4\xb8\x96"; "\xf0\x9f\x98\x80";
              "\\u0041"; "\\uD83D"; "\n"; "\t"; " ";
            ];
        ]
    in
    map (String.concat "") (list_size (int_bound 12) fragment))

let gen_json =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let scalar =
          oneof
            [
              return Json.Null;
              map (fun b -> Json.Bool b) bool;
              (* integral and awkward-decimal floats, all finite *)
              map (fun i -> Json.Num (float_of_int i)) small_signed_int;
              map (fun f -> Json.Num f) (float_bound_inclusive 1e6);
              map (fun s -> Json.Str s) gen_json_string;
            ]
        in
        if n <= 0 then scalar
        else
          frequency
            [
              (3, scalar);
              (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 2))));
              ( 1,
                map
                  (fun l -> Json.Obj l)
                  (list_size (int_bound 4)
                     (pair gen_json_string (self (n / 2)))) );
            ]))

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"json print/parse round-trip" ~count:500
    (QCheck.make gen_json ~print:Json.to_string)
    (fun j -> Json.parse (Json.to_string j) = Ok j)

(* hostile input must never raise out of [parse] — a result, Ok or Error,
   is the only acceptable outcome for the daemon's wire layer *)
let qcheck_json_parse_total =
  QCheck.Test.make ~name:"json parse is total on byte soup" ~count:500
    QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))
    (fun s ->
      match Json.parse s with Ok _ | Error _ -> true)

(* {2 Codec round-trip} *)

let test_codec_roundtrip () =
  List.iter
    (fun stamped ->
      let line = Codec.to_line stamped in
      match Codec.of_line line with
      | Ok decoded ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" (Event.kind_label stamped.Event.event))
          true (decoded = stamped)
      | Error e -> Alcotest.failf "decode error on %s: %s" line e)
    sample_events

let test_codec_file_roundtrip () =
  let path = Filename.temp_file "adpm_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Sink.jsonl_file path in
      List.iter sink.Sink.write sample_events;
      sink.Sink.close ();
      match Codec.read_file path with
      | Ok events ->
        Alcotest.(check bool) "file round-trip" true (events = sample_events)
      | Error e -> Alcotest.failf "read_file: %s" e)

let test_codec_rejects_malformed () =
  List.iter
    (fun line ->
      match Codec.of_line line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [
      "{}";
      {|{"seq":0,"clock":0,"type":"no_such_event"}|};
      {|{"seq":0,"clock":0,"type":"run_started","scenario":"x","mode":"ADPM"}|};
      "[1,2,3]";
    ]

(* [pool_retry] is not an event type: a line carrying one, as older
   traces may, is a typed decode error, never an exception. *)
let test_codec_rejects_pool_retry () =
  let line =
    {|{"seq":3,"clock":0,"type":"pool_retry","index":1,"attempt":1,"reason":"worker died","requeued":2}|}
  in
  match Codec.of_line line with
  | Ok _ -> Alcotest.fail "pool_retry decoded"
  | Error msg -> Alcotest.(check string) "error" "unknown event type pool_retry" msg
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)

(* {2 Sinks} *)

let test_null_sink () =
  List.iter Sink.null.Sink.write sample_events;
  Sink.null.Sink.close ();
  Sink.null.Sink.close ()

let test_tracer_stamping () =
  let buffer, sink = Sink.collector () in
  let tr = Tracer.create sink in
  Alcotest.(check bool) "created tracer active" true (Tracer.active tr);
  Alcotest.(check bool) "null tracer inactive" false (Tracer.active Tracer.null);
  Tracer.emit tr (Event.Propagation_started { constraints = 1 });
  Tracer.set_clock tr 7;
  Tracer.emit tr (Event.Propagation_started { constraints = 2 });
  (* emitting through the null tracer is a silent no-op *)
  Tracer.emit Tracer.null (Event.Propagation_started { constraints = 3 });
  match Sink.Collect.contents buffer with
  | [ a; b ] ->
    Alcotest.(check int) "first seq" 0 a.Event.seq;
    Alcotest.(check int) "first clock" 0 a.Event.clock;
    Alcotest.(check int) "second seq" 1 b.Event.seq;
    Alcotest.(check int) "second clock" 7 b.Event.clock
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

(* {2 Live capture through the engine} *)

let capture mode seed scenario =
  let buffer, sink = Sink.collector () in
  let tracer = Tracer.create sink in
  let outcome = Engine.run ~tracer (quick_cfg mode seed) scenario in
  Tracer.close tracer;
  (outcome, Sink.Collect.contents buffer)

let test_live_trace_shape () =
  let outcome, events = capture Dpm.Adpm 1 Lna.scenario in
  let summary = outcome.Engine.o_summary in
  (match events with
  | { Event.event = Event.Run_started { scenario; mode; seed; engine }; _ } :: _
    ->
    Alcotest.(check string) "scenario" "lna" scenario;
    Alcotest.(check string) "mode" "ADPM" mode;
    Alcotest.(check int) "seed" 1 seed;
    Alcotest.(check string) "engine" "incremental" engine
  | _ -> Alcotest.fail "first event must be run_started");
  (match List.rev events with
  | { Event.event = Event.Run_finished { operations; completed; _ }; _ } :: _
    ->
    Alcotest.(check int) "N_O recorded" summary.Metrics.s_operations operations;
    Alcotest.(check bool) "completed recorded" summary.Metrics.s_completed
      completed
  | _ -> Alcotest.fail "last event must be run_finished");
  let submitted =
    List.length
      (List.filter
         (fun s ->
           match s.Event.event with Event.Op_submitted _ -> true | _ -> false)
         events)
  in
  Alcotest.(check int) "one op_submitted per op" summary.Metrics.s_operations
    submitted;
  let decisions =
    List.filter
      (fun s ->
        match s.Event.event with Event.Designer_decision _ -> true | _ -> false)
      events
  in
  Alcotest.(check bool) "designer decisions recorded" true (decisions <> []);
  ignore
    (List.fold_left
       (fun (seq, clock) s ->
         Alcotest.(check int) "seq is dense" seq s.Event.seq;
         Alcotest.(check bool) "clock is monotone" true (s.Event.clock >= clock);
         (seq + 1, s.Event.clock))
       (0, 0) events)

let test_disabled_tracing_changes_nothing () =
  let baseline = Engine.run (quick_cfg Dpm.Adpm 3 ) Lna.scenario in
  let traced, _events = capture Dpm.Adpm 3 Lna.scenario in
  Alcotest.(check int) "same ops"
    baseline.Engine.o_summary.Metrics.s_operations
    traced.Engine.o_summary.Metrics.s_operations;
  Alcotest.(check int) "same evals"
    baseline.Engine.o_summary.Metrics.s_evaluations
    traced.Engine.o_summary.Metrics.s_evaluations

(* {2 Analysis} *)

let test_analyze () =
  let outcome, events = capture Dpm.Adpm 1 Sensor.scenario in
  let report = Analyze.analyze events in
  Alcotest.(check (option string)) "scenario" (Some "sensor")
    report.Analyze.r_scenario;
  Alcotest.(check int) "operations"
    outcome.Engine.o_summary.Metrics.s_operations report.Analyze.r_operations;
  Alcotest.(check bool) "adpm run propagates" true
    (report.Analyze.r_propagations > 0);
  Alcotest.(check bool) "waves recorded" true
    (report.Analyze.r_wave_sizes <> []);
  let rendered = Analyze.render report in
  Alcotest.(check bool) "render mentions scenario" true
    (contains ~sub:"sensor" rendered);
  match Json.parse (Json.to_string (Analyze.to_json report)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "analysis JSON does not re-parse: %s" e

(* {2 Replay} *)

let replay_scenarios = [ Simple.scenario; Lna.scenario; Sensor.scenario ]

let test_replay_convergence () =
  List.iter
    (fun scenario ->
      List.iter
        (fun mode ->
          List.iter
            (fun seed ->
              let _, events = capture mode seed scenario in
              let report = Replay.run ~resolve:(Scenario.resolver replay_scenarios) events in
              let label =
                Printf.sprintf "%s/%s seed %d"
                  scenario.Scenario.sc_name (Dpm.mode_to_string mode) seed
              in
              if not (Replay.converged report) then
                Alcotest.failf "%s diverged:\n%s" label (Replay.render report);
              Alcotest.(check bool)
                (label ^ " replayed every op")
                true
                (report.Replay.rp_operations > 0))
            [ 1; 2 ])
        [ Dpm.Conventional; Dpm.Adpm ])
    [ Simple.scenario; Lna.scenario ]

let test_replay_through_file () =
  let path = Filename.temp_file "adpm_replay" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let tracer = Tracer.create (Sink.jsonl_file path) in
      let _ = Engine.run ~tracer (quick_cfg Dpm.Adpm 5) Sensor.scenario in
      Tracer.close tracer;
      match Codec.read_file path with
      | Error e -> Alcotest.failf "read_file: %s" e
      | Ok events ->
        let report = Replay.run ~resolve:(Scenario.resolver replay_scenarios) events in
        if not (Replay.converged report) then
          Alcotest.failf "file replay diverged:\n%s" (Replay.render report))

let test_replay_detects_tampering () =
  let _, events = capture Dpm.Adpm 1 Lna.scenario in
  let tampered =
    List.map
      (fun s ->
        match s.Event.event with
        | Event.Run_finished
            {
              completed;
              operations;
              evaluations;
              setup_evaluations;
              spins;
              violations;
            } ->
          {
            s with
            Event.event =
              Event.Run_finished
                {
                  completed;
                  operations = operations + 1;
                  evaluations;
                  setup_evaluations;
                  spins;
                  violations;
                };
          }
        | _ -> s)
      events
  in
  let report = Replay.run ~resolve:(Scenario.resolver replay_scenarios) tampered in
  Alcotest.(check bool) "tampered totals detected" false
    (Replay.converged report)

let test_replay_rejects_unusable_traces () =
  Alcotest.check_raises "empty trace"
    (Replay.Replay_error "trace contains no run_started event") (fun () ->
      ignore (Replay.run ~resolve:(Scenario.resolver replay_scenarios) []));
  let bogus =
    [
      stamp 0
        (Event.Run_started
           { scenario = "nope"; mode = "ADPM"; seed = 1; engine = "full" });
    ]
  in
  match Replay.run ~resolve:(Scenario.resolver replay_scenarios) bogus with
  | exception Replay.Replay_error _ -> ()
  | _ -> Alcotest.fail "unknown scenario must raise"

(* An operation the DPM rejects (here an assignment outside the
   property's range) is a trace that cannot be replayed: [Replay_error],
   not the DPM's [Invalid_argument]. *)
let test_replay_rejects_inapplicable_op () =
  let _, events = capture Dpm.Adpm 1 Lna.scenario in
  let out_of_range = ref false in
  let tampered =
    List.map
      (fun s ->
        match s.Event.event with
        | Event.Op_submitted
            { op = { Event.op_kind = Event.Synthesis (_ :: _ as assigns); _ } as op;
              choose_evaluations }
          when not !out_of_range ->
          out_of_range := true;
          let assigns = List.map (fun (p, _) -> (p, Event.Vnum 1e308)) assigns in
          {
            s with
            Event.event =
              Event.Op_submitted
                { op = { op with Event.op_kind = Event.Synthesis assigns };
                  choose_evaluations };
          }
        | _ -> s)
      events
  in
  Alcotest.(check bool) "the trace has a synthesis to tamper" true !out_of_range;
  match Replay.run ~resolve:(Scenario.resolver replay_scenarios) tampered with
  | exception Replay.Replay_error msg ->
    Alcotest.(check bool) "the error names the operation" true
      (contains ~sub:"inapplicable operation 1" msg)
  | _ -> Alcotest.fail "an inapplicable operation must raise Replay_error"

(* A trace recorded by the retired from-scratch engine with
   [teamsim run simple -m adpm -s 1 -e full --trace]: its header says
   "full", and every operation was charged a whole HC4 run. Replay
   reproduces that charge from the header alone. *)
let full_engine_fixture =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "fixtures/full_engine_simple_adpm_s1.jsonl"

let fixture_header engine_field =
  Printf.sprintf
    {|{"seq":0,"clock":0,"type":"run_started","scenario":"simple","mode":"ADPM","seed":1%s}|}
    engine_field

(* Replay the fixture with its header line replaced by [header]. *)
let replay_full_fixture header =
  let lines =
    In_channel.with_open_text full_engine_fixture In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check string) "fixture header" (fixture_header {|,"engine":"full"|})
    (List.hd lines);
  let events =
    List.mapi
      (fun i line ->
        match Codec.of_line (if i = 0 then header else line) with
        | Ok e -> e
        | Error e -> Alcotest.failf "fixture line %d: %s" (i + 1) e)
      lines
  in
  (events, Replay.run ~resolve:(Scenario.resolver replay_scenarios) events)

let test_replay_full_engine_fixture () =
  let _, report = replay_full_fixture (fixture_header {|,"engine":"full"|}) in
  if not (Replay.converged report) then
    Alcotest.failf "full-engine fixture diverged:\n%s" (Replay.render report);
  Alcotest.(check int) "every op replayed" 9 report.Replay.rp_operations;
  (* read as incremental, the same operations are charged less: the
     from-scratch restarts are what reproduce the recorded N_T *)
  let _, report =
    replay_full_fixture (fixture_header {|,"engine":"incremental"|})
  in
  let per_op_evaluations m =
    String.starts_with ~prefix:"op " m.Replay.mm_label
    && String.ends_with ~suffix:" evaluations" m.Replay.mm_label
  in
  Alcotest.(check bool) "incremental header: per-op evaluations diverge" true
    (List.exists per_op_evaluations report.Replay.rp_mismatches);
  (* a header from before the engine field decodes as "full" *)
  let events, report = replay_full_fixture (fixture_header "") in
  (match (List.hd events).Event.event with
  | Event.Run_started { engine; _ } ->
    Alcotest.(check string) "missing engine decodes as full" "full" engine
  | _ -> Alcotest.fail "fixture starts with run_started");
  if not (Replay.converged report) then
    Alcotest.failf "engine-less header diverged:\n%s" (Replay.render report)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "json surrogate pairs" `Quick test_json_surrogate_pairs;
    Alcotest.test_case "json strict hex escapes" `Quick
      test_json_strict_hex_escapes;
    Alcotest.test_case "json nan contract" `Quick test_json_nan_contract;
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_json_parse_total;
    Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec file round-trip" `Quick test_codec_file_roundtrip;
    Alcotest.test_case "codec rejects malformed" `Quick
      test_codec_rejects_malformed;
    Alcotest.test_case "codec rejects a pool_retry line" `Quick
      test_codec_rejects_pool_retry;
    Alcotest.test_case "null sink" `Quick test_null_sink;
    Alcotest.test_case "tracer stamping" `Quick test_tracer_stamping;
    Alcotest.test_case "live trace shape" `Quick test_live_trace_shape;
    Alcotest.test_case "tracing is observationally inert" `Quick
      test_disabled_tracing_changes_nothing;
    Alcotest.test_case "trace analysis" `Quick test_analyze;
    Alcotest.test_case "replay converges (2 scenarios x 2 modes)" `Quick
      test_replay_convergence;
    Alcotest.test_case "replay through a file" `Quick test_replay_through_file;
    Alcotest.test_case "replay detects tampering" `Quick
      test_replay_detects_tampering;
    Alcotest.test_case "replay rejects unusable traces" `Quick
      test_replay_rejects_unusable_traces;
    Alcotest.test_case "replay rejects an inapplicable op" `Quick
      test_replay_rejects_inapplicable_op;
    Alcotest.test_case "replay of a full-engine trace" `Quick
      test_replay_full_engine_fixture;
  ]
