(* Tests for Adpm_sim (event queue, scheduler, duration model)
   and for Config.validate, which gates the discrete-event engine's new
   numeric settings. *)

open Adpm_core
open Adpm_sim
open Adpm_teamsim

(* {2 Event queue} *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  List.iter (fun t -> Event_queue.push q ~time:t t) [ 5; 1; 9; 3; 7 ];
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (t, v) ->
      Alcotest.(check int) "payload matches its timestamp" t v;
      drain (t :: acc)
  in
  Alcotest.(check (list int)) "pops in time order" [ 1; 3; 5; 7; 9 ] (drain []);
  Alcotest.(check bool) "empty after drain" true (Event_queue.pop q = None)

let test_queue_tie_break () =
  let q = Event_queue.create () in
  List.iter (fun v -> Event_queue.push q ~time:4 v) [ "a"; "b"; "c" ];
  Event_queue.push q ~time:2 "first";
  let pops = List.init 4 (fun _ ->
      match Event_queue.pop q with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string))
    "same-time entries pop in push order" [ "first"; "a"; "b"; "c" ] pops

let test_queue_negative_time () =
  let q = Event_queue.create () in
  Alcotest.check_raises "negative time rejected"
    (Invalid_argument "Event_queue.push: negative time") (fun () ->
      Event_queue.push q ~time:(-1) ())

let test_queue_interleaved () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:10 "late";
  Event_queue.push q ~time:0 "early";
  (match Event_queue.pop q with
  | Some (0, "early") -> ()
  | _ -> Alcotest.fail "expected the early entry");
  Event_queue.push q ~time:5 "mid";
  (match Event_queue.pop q with
  | Some (5, "mid") -> ()
  | _ -> Alcotest.fail "expected the mid entry before the late one");
  Event_queue.clear q;
  Alcotest.(check bool) "clear empties" true (Event_queue.pop q = None)

(* {2 Scheduler} *)

let test_scheduler_clock () =
  let sch = Scheduler.create () in
  Alcotest.(check int) "starts at 0" 0 (Scheduler.now sch);
  let seen = ref [] in
  Scheduler.schedule sch ~delay:3 `A;
  Scheduler.schedule sch ~delay:1 `B;
  Scheduler.run sch (fun ev ->
      seen := (ev, Scheduler.now sch) :: !seen;
      (* the handler schedules relative to the advanced clock *)
      if ev = `B then Scheduler.schedule sch ~delay:4 `C);
  Alcotest.(check bool) "fires B(1), A(3), C(5)" true
    (List.rev !seen = [ (`B, 1); (`A, 3); (`C, 5) ]);
  Alcotest.(check int) "clock rests at the last event" 5 (Scheduler.now sch)

let test_scheduler_halt () =
  let sch = Scheduler.create () in
  let fired = ref 0 in
  Scheduler.schedule sch ~delay:0 ();
  Scheduler.schedule sch ~delay:1 ();
  Scheduler.schedule sch ~delay:2 ();
  Scheduler.run sch (fun () ->
      incr fired;
      Scheduler.halt sch);
  Alcotest.(check int) "halt stops after the current event" 1 !fired;
  Scheduler.schedule sch ~delay:0 ();
  Scheduler.run sch (fun () -> incr fired);
  Alcotest.(check int) "schedule after halt is a no-op" 1 !fired;
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Scheduler.schedule: negative delay") (fun () ->
      Scheduler.schedule (Scheduler.create ()) ~delay:(-2) ())

(* {2 Duration model} *)

let test_model_roundtrip () =
  List.iter
    (fun d ->
      match Model.duration_of_string (Model.duration_to_string d) with
      | Ok d' ->
        Alcotest.(check bool)
          (Model.duration_to_string d ^ " round-trips")
          true (d = d')
      | Error msg -> Alcotest.fail msg)
    [
      Model.Uniform 1;
      Model.Uniform 7;
      Model.Per_kind { dm_synthesis = 2; dm_verification = 5; dm_decompose = 1 };
    ];
  List.iter
    (fun s ->
      match Model.duration_of_string s with
      | Ok _ -> Alcotest.fail (s ^ " should not parse")
      | Error _ -> ())
    [ ""; "uniform"; "uniform:x"; "per-kind:1,2"; "gaussian:3" ]

let test_model_durations () =
  let per =
    Model.Per_kind { dm_synthesis = 2; dm_verification = 5; dm_decompose = 1 }
  in
  Alcotest.(check int) "synthesis" 2 (Model.duration_for per Model.Synthesis);
  Alcotest.(check int) "verification" 5
    (Model.duration_for per Model.Verification);
  Alcotest.(check int) "decompose" 1 (Model.duration_for per Model.Decompose);
  Alcotest.(check int) "uniform" 3
    (Model.duration_for (Model.Uniform 3) Model.Verification);
  Alcotest.(check int) "own delivery instant" 0
    (Model.delivery_delay ~latency:9 ~own:true ());
  Alcotest.(check int) "teammate delivery lags" 9
    (Model.delivery_delay ~latency:9 ~own:false ());
  Alcotest.(check int) "jitter stretches teammate delivery" 12
    (Model.delivery_delay ~extra:3 ~latency:9 ~own:false ());
  Alcotest.(check int) "jitter never delays own feedback" 0
    (Model.delivery_delay ~extra:3 ~latency:9 ~own:true ())

(* {2 Config validation} *)

let base = Config.default ~mode:Dpm.Adpm ~seed:1

let rejects name cfg =
  match Config.validate cfg with
  | Error _ -> ()
  | Ok () -> Alcotest.fail (name ^ ": expected a validation error")

let test_config_validate () =
  (match Config.validate base with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("default config must validate: " ^ msg));
  rejects "zero max_ops" { base with Config.max_ops = 0 };
  rejects "negative max_ops" { base with Config.max_ops = -3 };
  rejects "negative latency" { base with Config.latency = -1 };
  rejects "negative duration"
    { base with Config.duration_model = Adpm_sim.Model.Uniform (-2) };
  rejects "negative per-kind duration"
    {
      base with
      Config.duration_model =
        Adpm_sim.Model.Per_kind
          { dm_synthesis = 1; dm_verification = -1; dm_decompose = 1 };
    };
  Alcotest.check_raises "validate_exn raises Invalid_argument"
    (Invalid_argument
       "Config.validate: max_ops must be positive (got 0)") (fun () ->
      Config.validate_exn { base with Config.max_ops = 0 })

let suite =
  [
    ("event queue: time order", `Quick, test_queue_time_order);
    ("event queue: FIFO tie-break", `Quick, test_queue_tie_break);
    ("event queue: negative time", `Quick, test_queue_negative_time);
    ("event queue: interleaved use", `Quick, test_queue_interleaved);
    ("scheduler clock", `Quick, test_scheduler_clock);
    ("scheduler halt", `Quick, test_scheduler_halt);
    ("duration model round-trip", `Quick, test_model_roundtrip);
    ("duration and delivery lookups", `Quick, test_model_durations);
    ("config validation", `Quick, test_config_validate);
  ]
