(* The temporal-property checker and schedule fuzzer.

   Hand-crafted satisfying and violating traces pin down each property's
   semantics (including every excusal: in-flight at halt, recipient down
   for the delivery window, fault-injector drop, unknown crash plan).
   QCheck then drives the one-pass evaluator against naive quadratic
   reference implementations over random traces. Finally the whole loop:
   an intentionally broken property makes the fuzzer find a violation,
   shrink it, and emit an artifact that replays deterministically — and
   ring-truncated traces are refused, never vacuously passed. *)

open Adpm_core
open Adpm_teamsim
open Adpm_scenarios
open Adpm_trace
module Fault = Adpm_fault.Fault
module Model = Adpm_sim.Model
module Prop = Adpm_check.Prop
module Props = Adpm_check.Props
module Fuzz = Adpm_check.Fuzz

let stamp events =
  List.mapi (fun i e -> { Event.seq = i; clock = i; event = e }) events

let verdict_of name results =
  match List.find_opt (fun r -> r.Prop.c_prop = name) results with
  | Some r -> r.Prop.c_verdict
  | None -> Alcotest.failf "no result for property %s" name

let is_fail = function Prop.Fail _ -> true | _ -> false

let check_verdict label expected prop events =
  let results = Prop.check [ prop ] events in
  let v = verdict_of prop.Prop.p_name results in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%s)" label (Prop.verdict_to_string v))
    expected (is_fail v)

(* a designer executed op [index]; the checker learns the actor from it *)
let executed ?(designer = "ann") index =
  Event.Op_executed
    {
      index;
      designer;
      kind = "synthesis";
      evaluations = 1;
      newly_violated = [];
      resolved = [];
      skipped = [];
      spin = false;
    }

let pushed ?(recipient = "bob") ?(violations = [ 1 ]) op_index =
  Event.Notification_pushed { recipient; op_index; events = []; violations }

let delivered ?(recipient = "bob") ?(sent_at = 1) ?(delivered_at = 2) op_index =
  Event.Notification_delivered
    { recipient; op_index; sent_at; delivered_at; events = []; violations = [] }

let dropped ?(recipient = "bob") ?(at = 1) op_index =
  Event.Notification_dropped { recipient; op_index; at }

let turn ?(at = 0) designer = Event.Turn_started { designer; at }

(* {2 notified-or-resolved} *)

let p1 = Props.notified_or_resolved ~horizon:3

(* op 0 completes at 1; a later completion at 50 pushes the makespan far
   past the delivery window, so an undelivered violation is a real miss *)
let p1_base tail =
  stamp
    ([ executed 0; pushed 0; Event.Op_completed { index = 0; at = 1 } ]
    @ tail
    @ [ Event.Op_completed { index = 9; at = 50 } ])

let test_p1_verdicts () =
  check_verdict "undelivered violation fails" true p1 (p1_base []);
  check_verdict "delivery discharges" false p1 (p1_base [ delivered 0 ]);
  check_verdict "resolution discharges" false p1
    (p1_base
       [
         Event.Constraint_status_changed
           { cid = 1; old_status = Event.Violated; new_status = Event.Satisfied };
       ]);
  check_verdict "injector drop excuses" false p1 (p1_base [ dropped 0 ]);
  check_verdict "crashed recipient excuses" false p1
    (p1_base [ Event.Designer_crashed { designer = "bob"; at = 0 } ]);
  (* recipient crashed for part of the window, restarted after it *)
  check_verdict "crash window overlapping transit excuses" false p1
    (p1_base
       [
         Event.Designer_crashed { designer = "bob"; at = 2 };
         Event.Designer_restarted { designer = "bob"; at = 20 };
       ]);
  (* a delivery for a different op does not discharge *)
  check_verdict "unrelated delivery does not discharge" true p1
    (p1_base [ delivered 3 ]);
  (* resolution of a different constraint does not discharge *)
  check_verdict "unrelated resolution does not discharge" true p1
    (p1_base
       [
         Event.Constraint_status_changed
           { cid = 2; old_status = Event.Violated; new_status = Event.Satisfied };
       ])

let test_p1_excusals () =
  (* still in flight: the makespan never outruns the delivery window *)
  check_verdict "in-flight at halt is excused" false p1
    (stamp [ executed 0; pushed 0; Event.Op_completed { index = 0; at = 1 } ]);
  (* an executed operation without [Op_completed] (the shape of a
     lockstep-loop trace) has no excuse *)
  check_verdict "lockstep trace is reported" true p1
    (stamp [ executed 0; pushed 0 ]);
  (* the actor's own feedback is local, never delivered as a teammate push *)
  check_verdict "own push is excused" false p1
    (stamp
       [
         executed ~designer:"bob" 0;
         pushed 0;
         Event.Op_completed { index = 0; at = 1 };
         Event.Op_completed { index = 9; at = 50 };
       ]);
  (* an empty violations list opens no obligation *)
  check_verdict "no violations, no obligation" false p1
    (stamp
       [
         executed 0;
         pushed ~violations:[] 0;
         Event.Op_completed { index = 0; at = 1 };
         Event.Op_completed { index = 9; at = 50 };
       ])

(* adversarial traces can record two crashes of one designer before any
   restart; the second restart must close the older still-open window.
   Before the fix it was discarded when the newest window was already
   closed, leaving the recipient "down forever" — which excused a real
   miss that the naive reference flags (found by the QCheck agreement
   test). Both restarts predate the delivery window, so no excuse holds. *)
let test_p1_nested_crash_windows () =
  check_verdict "restart closes the oldest open crash window" true p1
    (p1_base
       [
         Event.Designer_crashed { designer = "bob"; at = 2 };
         Event.Designer_crashed { designer = "bob"; at = 3 };
         Event.Designer_restarted { designer = "bob"; at = 0 };
         Event.Designer_restarted { designer = "bob"; at = 0 };
       ])

(* {2 no-starvation} *)

let p2 = Props.no_starvation ()

let test_p2_verdicts () =
  (* roster {a,b}: bound = 2*2 + 4 = 8 other turns *)
  check_verdict "alternating turns pass" false p2
    (stamp (List.concat (List.init 10 (fun _ -> [ turn "a"; turn "b" ]))));
  check_verdict "nine turns without a's turn fail" true p2
    (stamp (turn "a" :: List.init 9 (fun _ -> turn "b")));
  check_verdict "eight turns stay within the bound" false p2
    (stamp (turn "a" :: List.init 8 (fun _ -> turn "b")));
  (* a crashed designer is down, not starving *)
  check_verdict "crash disarms the counter" false p2
    (stamp
       ((turn "a" :: [ Event.Designer_crashed { designer = "a"; at = 1 } ])
       @ List.init 12 (fun _ -> turn "b")))

(* {2 crash-rejoins} *)

let crash_plan = [ { Fault.cr_designer = "b"; cr_at = 5; cr_recover = 3 } ]

let test_p3_verdicts () =
  let p3 = Props.crash_rejoins ~crashes:crash_plan () in
  let base tail =
    stamp
      ([ turn "a"; turn "b"; Event.Designer_crashed { designer = "b"; at = 5 } ]
      @ tail
      @ [ Event.Op_completed { index = 0; at = 40 } ])
  in
  check_verdict "restart never fires" true p3 (base []);
  check_verdict "restart and rejoin pass" false p3
    (base
       [ Event.Designer_restarted { designer = "b"; at = 8 }; turn ~at:9 "b" ]);
  (* restarted but never granted a turn again: roster {a,b} bound is 8 *)
  check_verdict "restart without rejoining fails" true p3
    (base
       (Event.Designer_restarted { designer = "b"; at = 8 }
       :: List.init 9 (fun _ -> turn "a")));
  (* without the plan the restart deadline is unknowable — excused *)
  let p3_blind = Props.crash_rejoins () in
  check_verdict "unknown plan excuses the deadline" false p3_blind (base []);
  (* a restart due after the halt is excused even with the plan *)
  let p3' = Props.crash_rejoins ~crashes:crash_plan () in
  check_verdict "restart due after halt is excused" false p3'
    (stamp
       [
         turn "a"; turn "b";
         Event.Designer_crashed { designer = "b"; at = 5 };
         Event.Op_completed { index = 0; at = 6 };
       ])

(* {2 no-deliver-after-drop} *)

let p4 = Props.no_deliver_after_drop

let test_p4_verdicts () =
  check_verdict "deliver after drop fails" true p4
    (stamp [ dropped 0; delivered 0 ]);
  check_verdict "drop alone passes" false p4 (stamp [ dropped 0 ]);
  check_verdict "deliver before drop passes" false p4
    (stamp [ delivered 0; dropped 0 ]);
  check_verdict "different op passes" false p4
    (stamp [ dropped 0; delivered 1 ]);
  check_verdict "different recipient passes" false p4
    (stamp [ dropped 0; delivered ~recipient:"eve" 0 ])

(* {2 no-idle-halt-in-flight} *)

let p5 = Props.no_idle_halt_in_flight ~horizon:3

let submitted designer =
  Event.Op_submitted
    {
      op =
        {
          Event.op_designer = designer;
          op_problem = 0;
          op_kind = Event.Verification [];
          op_motivated_by = [];
        };
      choose_evaluations = 0;
    }

let finished completed =
  Event.Run_finished
    {
      completed;
      operations = 1;
      evaluations = 1;
      setup_evaluations = 0;
      spins = 0;
      violations = [];
    }

(* ann executes op 0 at tick 1 and pushes a notification to bob; [mid]
   follows the completion, [tail] closes the run *)
let halt_trace ?(mid = []) tail =
  stamp
    ([ turn "ann"; turn "bob"; turn ~at:1 "ann"; submitted "ann"; pushed 0;
       executed 0; Event.Op_completed { index = 0; at = 1 } ]
    @ mid @ tail)

let test_p5_verdicts () =
  let idle = [ turn ~at:1 "bob"; turn ~at:1 "ann" ] in
  check_verdict "idle unsolved halt with the notification in flight fails"
    true p5
    (halt_trace (idle @ [ finished false ]));
  check_verdict "delivered before the halt passes" false p5
    (halt_trace ~mid:[ delivered ~sent_at:1 ~delivered_at:2 0 ]
       (idle @ [ finished false ]));
  check_verdict "dropped passes" false p5
    (halt_trace ~mid:[ dropped 0 ] (idle @ [ finished false ]));
  check_verdict "a solved run is not judged" false p5
    (halt_trace (idle @ [ finished true ]));
  (* out of budget: the run stops right after [Op_completed] *)
  check_verdict "a budget stop is not an idle halt" false p5
    (halt_trace [ finished false ]);
  check_verdict "a round not yet complete is not idle" false p5
    (halt_trace [ turn ~at:1 "ann"; finished false ]);
  check_verdict "the actor's own notification is local" false p5
    (stamp
       [ turn "ann"; turn "bob"; submitted "ann"; pushed ~recipient:"ann" 0;
         executed 0; Event.Op_completed { index = 0; at = 1 };
         turn ~at:1 "bob"; turn ~at:1 "ann"; finished false ]);
  check_verdict "a recipient down for the delivery is excused" false p5
    (halt_trace
       ~mid:[ Event.Designer_crashed { designer = "bob"; at = 2 };
              Event.Designer_restarted { designer = "bob"; at = 3 } ]
       (idle @ [ finished false ]))

(* The engine side of P5: at latency 1 a conventional sensor team can sit
   idle for a round while teammates' outcomes are still in transit; the
   run must wait for them instead of ending unsolved. *)
let test_idle_round_waits_for_deliveries () =
  List.iter
    (fun (seed, ops) ->
      let buf, sink = Sink.collector () in
      let tracer = Tracer.create sink in
      let cfg =
        { (Config.default ~mode:Dpm.Conventional ~seed) with Config.latency = 1 }
      in
      let outcome = Engine.run ~tracer cfg Sensor.scenario in
      Tracer.close tracer;
      let s = outcome.Engine.o_summary in
      Alcotest.(check (pair bool int))
        (Printf.sprintf "seed %d completes" seed)
        (true, ops)
        (s.Metrics.s_completed, s.Metrics.s_operations);
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d satisfies the suite" seed)
        []
        (List.map
           (fun r -> r.Prop.c_prop)
           (Prop.failed
              (Prop.check (Props.suite ()) (Sink.Collect.contents buf)))))
    [ (1, 76); (2, 43); (3, 48) ]

(* {2 Truncation refusal} *)

let all_truncated results =
  List.for_all
    (fun r ->
      match r.Prop.c_verdict with Prop.Truncated _ -> true | _ -> false)
    results

let test_truncation_refused () =
  let events = stamp [ dropped 0; delivered 0 ] in
  (* a missing middle event leaves a seq gap *)
  let holed =
    List.filter
      (fun (ev : Event.stamped) -> ev.Event.seq <> 1)
      (stamp [ dropped 0; dropped 1; delivered 0 ])
  in
  Alcotest.(check bool)
    "seq gap refuses" true
    (all_truncated (Prop.check (Props.suite ()) holed));
  (* a missing prefix leaves the first seq above zero *)
  let gappy =
    List.mapi
      (fun i (ev : Event.stamped) -> { ev with Event.seq = i + 5 })
      events
  in
  let results = Prop.check (Props.suite ()) gappy in
  Alcotest.(check bool) "seq offset refuses" true (all_truncated results);
  (match results with
  | { Prop.c_verdict = Prop.Truncated { dropped }; _ } :: _ ->
    Alcotest.(check int) "missing-event lower bound" 5 dropped
  | _ -> Alcotest.fail "expected truncated verdicts");
  (* and a violating complete trace still fails, not truncates *)
  Alcotest.(check bool)
    "complete trace keeps its verdict" true
    (is_fail (verdict_of "no-deliver-after-drop" (Prop.check [ p4 ] events)))

(* An engine trace that lost its head, or one line in the middle, is
   refused as a whole; the complete trace is not. *)
let test_truncated_trace_refused () =
  let buf, sink = Sink.collector () in
  let tracer = Tracer.create sink in
  let cfg =
    { (Config.default ~mode:Dpm.Adpm ~seed:1) with Config.max_ops = 200 }
  in
  let (_ : Engine.outcome) = Engine.run ~tracer cfg Sensor.scenario in
  Tracer.close tracer;
  let events = Sink.Collect.contents buf in
  let n = List.length events in
  Alcotest.(check bool) "trace long enough to cut" true (n > 8);
  Alcotest.(check bool)
    "complete trace is not truncated" false
    (all_truncated (Prop.check (Props.suite ()) events));
  Alcotest.(check bool)
    "missing prefix refuses" true
    (all_truncated
       (Prop.check (Props.suite ()) (List.filteri (fun i _ -> i >= 8) events)));
  Alcotest.(check bool)
    "seq gap refuses" true
    (all_truncated
       (Prop.check (Props.suite ())
          (List.filteri (fun i _ -> i <> n / 2) events)))

(* {2 Collect sink: nothing ever truncated} *)

let test_collect_sink () =
  let buf, sink = Sink.collector () in
  let tracer = Tracer.create sink in
  for i = 0 to 999 do
    Tracer.emit tracer (Event.Op_completed { index = i; at = i })
  done;
  Tracer.close tracer;
  Alcotest.(check int) "length" 1000 (Sink.Collect.length buf);
  let events = Sink.Collect.contents buf in
  List.iteri
    (fun i (ev : Event.stamped) ->
      if ev.Event.seq <> i then
        Alcotest.failf "event %d has seq %d" i ev.Event.seq)
    events;
  Alcotest.(check (option int)) "no truncation" None (Prop.truncation events)

(* {2 QCheck: one-pass evaluator vs naive references} *)

let designers = [ "a"; "b"; "c" ]

let gen_event =
  QCheck.Gen.(
    let designer = oneofl designers in
    let op = int_bound 4 in
    let cid = int_bound 2 in
    let at = int_bound 30 in
    frequency
      [
        (4, map2 (fun d t -> Event.Turn_started { designer = d; at = t }) designer at);
        ( 3,
          map2
            (fun r o ->
              Event.Notification_pushed
                { recipient = r; op_index = o; events = []; violations = [ 1 ] })
            designer op );
        ( 3,
          map3
            (fun r o t ->
              Event.Notification_delivered
                {
                  recipient = r;
                  op_index = o;
                  sent_at = t;
                  delivered_at = t + 1;
                  events = [];
                  violations = [];
                })
            designer op at );
        ( 2,
          map3
            (fun r o t ->
              Event.Notification_dropped { recipient = r; op_index = o; at = t })
            designer op at );
        (1, map2 (fun d t -> Event.Designer_crashed { designer = d; at = t }) designer at);
        (1, map2 (fun d t -> Event.Designer_restarted { designer = d; at = t }) designer at);
        ( 1,
          map
            (fun c ->
              Event.Constraint_status_changed
                {
                  cid = c;
                  old_status = Event.Violated;
                  new_status = Event.Satisfied;
                })
            cid );
        (2, map2 (fun o t -> Event.Op_completed { index = o; at = t }) op at);
        (1, map (fun o -> executed ~designer:"a" o) op);
      ])

let gen_trace = QCheck.Gen.(map stamp (list_size (int_bound 60) gen_event))

let arb_trace =
  QCheck.make
    ~print:(fun events ->
      String.concat "\n" (List.map Codec.to_line events))
    gen_trace

(* naive makespan: same definition as the evaluator's, independent fold *)
let naive_makespan events =
  List.fold_left
    (fun acc (ev : Event.stamped) ->
      let t =
        match ev.Event.event with
        | Event.Op_completed { at; _ }
        | Event.Turn_started { at; _ }
        | Event.Designer_crashed { at; _ }
        | Event.Designer_restarted { at; _ }
        | Event.Notification_dropped { at; _ }
        | Event.Notification_duplicated { at; _ } ->
          at
        | Event.Notification_delivered { delivered_at; _ } -> delivered_at
        | _ -> 0
      in
      max acc t)
    0 events

let naive_crash_windows events designer =
  let opens, windows =
    List.fold_left
      (fun (opened, ws) (ev : Event.stamped) ->
        match ev.Event.event with
        | Event.Designer_crashed { designer = d; at } when d = designer ->
          (at :: opened, ws)
        | Event.Designer_restarted { designer = d; at } when d = designer -> (
          match opened with
          | c :: rest -> (rest, (c, Some at) :: ws)
          | [] -> ([], ws))
        | _ -> (opened, ws))
      ([], []) events
  in
  List.map (fun c -> (c, None)) opens @ windows

let naive_crashed_during events designer t1 t2 =
  List.exists
    (fun (c, r) ->
      match r with Some r -> c <= t2 && r >= t1 | None -> c <= t2)
    (naive_crash_windows events designer)

(* naive P1: quadratic scan per pushed violation *)
let naive_notified events ~horizon =
  let arr = Array.of_list events in
  let n = Array.length arr in
  let makespan = naive_makespan events in
  let last tbl_of =
    List.fold_left
      (fun acc (ev : Event.stamped) ->
        match tbl_of ev.Event.event with Some kv -> kv :: acc | None -> acc)
      [] events
  in
  let completions =
    last (function
      | Event.Op_completed { index; at } -> Some (index, at)
      | _ -> None)
  in
  let actors =
    last (function
      | Event.Op_executed { index; designer; _ } -> Some (index, designer)
      | _ -> None)
  in
  let violated = ref false in
  for i = 0 to n - 1 do
    match arr.(i).Event.event with
    | Event.Notification_pushed { recipient; op_index; violations; _ }
      when violations <> [] ->
      List.iter
        (fun cid ->
          let closed = ref false in
          for j = i + 1 to n - 1 do
            match arr.(j).Event.event with
            | Event.Notification_delivered { recipient = r; op_index = o; _ }
            | Event.Notification_dropped { recipient = r; op_index = o; _ }
              when r = recipient && o = op_index ->
              closed := true
            | Event.Constraint_status_changed
                { cid = c; new_status = Event.Satisfied | Event.Consistent; _ }
              when c = cid ->
              closed := true
            | _ -> ()
          done;
          let excused =
            match List.assoc_opt op_index completions with
            | None -> false
            | Some sent ->
              sent + horizon >= makespan
              || naive_crashed_during events recipient sent (sent + horizon)
              || List.assoc_opt op_index actors = Some recipient
          in
          if (not !closed) && not excused then violated := true)
        violations
    | _ -> ()
  done;
  !violated

(* naive P2: for every arming turn, walk forward counting other turns,
   recomputing the dynamic roster bound at each tick *)
let naive_starvation events ~slack =
  let arr = Array.of_list events in
  let n = Array.length arr in
  let roster_at j =
    let seen = Hashtbl.create 8 in
    for k = 0 to j do
      match arr.(k).Event.event with
      | Event.Turn_started { designer; _ }
      | Event.Op_executed { designer; _ }
      | Event.Designer_crashed { designer; _ } ->
        Hashtbl.replace seen designer ()
      | _ -> ()
    done;
    Hashtbl.length seen
  in
  let violated = ref false in
  for i = 0 to n - 1 do
    match arr.(i).Event.event with
    | Event.Turn_started { designer = d; _ } ->
      let count = ref 0 in
      let live = ref true in
      for j = i + 1 to n - 1 do
        if !live then
          match arr.(j).Event.event with
          | Event.Turn_started { designer = e; _ } when e = d -> live := false
          | Event.Designer_crashed { designer = e; _ } when e = d ->
            live := false
          | Event.Turn_started _ ->
            incr count;
            if !count > (2 * roster_at j) + slack then violated := true
          | _ -> ()
      done
    | _ -> ()
  done;
  !violated

(* naive P4: any delivered pair preceded by a drop of the same pair *)
let naive_deliver_after_drop events =
  let arr = Array.of_list events in
  let n = Array.length arr in
  let violated = ref false in
  for j = 0 to n - 1 do
    match arr.(j).Event.event with
    | Event.Notification_delivered { recipient; op_index; _ } ->
      for i = 0 to j - 1 do
        match arr.(i).Event.event with
        | Event.Notification_dropped { recipient = r; op_index = o; _ }
          when r = recipient && o = op_index ->
          violated := true
        | _ -> ()
      done
    | _ -> ()
  done;
  !violated

let agree_test name prop naive =
  QCheck.Test.make ~name ~count:300 arb_trace (fun events ->
      let one_pass = is_fail (verdict_of prop.Prop.p_name (Prop.check [ prop ] events)) in
      one_pass = naive events)

let qcheck_notified =
  agree_test "one-pass notified-or-resolved agrees with naive reference"
    (Props.notified_or_resolved ~horizon:5)
    (naive_notified ~horizon:5)

let qcheck_starvation =
  agree_test "one-pass no-starvation agrees with naive reference"
    (Props.no_starvation ()) (naive_starvation ~slack:4)

let qcheck_deliver_after_drop =
  agree_test "one-pass no-deliver-after-drop agrees with naive reference"
    Props.no_deliver_after_drop naive_deliver_after_drop

(* {2 Shrink-plan algebra} *)

let test_shrink_plan () =
  Alcotest.(check int)
    "none has no candidates" 0
    (List.length (Fault.shrink_plan Fault.none));
  let plan =
    {
      Fault.p_drop = 0.4;
      p_dup = 0.2;
      p_jitter = 3;
      p_crashes = crash_plan;
    }
  in
  let cands = Fault.shrink_plan plan in
  Alcotest.(check bool) "has candidates" true (cands <> []);
  Alcotest.(check bool)
    "crash removal offered" true
    (List.exists (fun p -> p.Fault.p_crashes = []) cands);
  Alcotest.(check bool)
    "drop zeroing offered" true
    (List.exists (fun p -> p.Fault.p_drop = 0.) cands);
  (* every candidate is strictly smaller in some dimension, never larger *)
  List.iter
    (fun p ->
      let smaller =
        p.Fault.p_drop < plan.Fault.p_drop
        || p.Fault.p_dup < plan.Fault.p_dup
        || p.Fault.p_jitter < plan.Fault.p_jitter
        || List.length p.Fault.p_crashes < List.length plan.Fault.p_crashes
      in
      let no_growth =
        p.Fault.p_drop <= plan.Fault.p_drop
        && p.Fault.p_dup <= plan.Fault.p_dup
        && p.Fault.p_jitter <= plan.Fault.p_jitter
        && List.length p.Fault.p_crashes <= List.length plan.Fault.p_crashes
      in
      Alcotest.(check bool) "strictly smaller" true (smaller && no_growth))
    cands

let test_max_delivery_delay () =
  Alcotest.(check int) "latency + jitter" 5
    (Model.max_delivery_delay ~latency:3 ~jitter:2);
  Alcotest.(check int) "negative jitter clamps" 3
    (Model.max_delivery_delay ~latency:3 ~jitter:(-1))

(* {2 End to end: fuzz, shrink, artifact, replay} *)

let scenarios_for_replay =
  [ Simple.scenario; Lna.scenario; Sensor.scenario; Receiver.scenario ]

(* intentionally broken: real fault plans drop notifications routinely *)
let bogus_no_drops =
  Prop.never ~name:"no-drops" ~doc:"no notification is ever dropped"
    (fun (ev : Event.stamped) ->
      match ev.Event.event with
      | Event.Notification_dropped { recipient; op_index; _ } ->
        Some (Printf.sprintf "notification %s#%d dropped" recipient op_index)
      | _ -> None)

let test_fuzz_finds_shrinks_replays () =
  let faults =
    { Fault.p_drop = 0.5; p_dup = 0.2; p_jitter = 2; p_crashes = crash_plan }
  in
  let faults = { faults with Fault.p_crashes = [ { Fault.cr_designer = "mems"; cr_at = 5; cr_recover = 3 } ] } in
  let suite _ = [ bogus_no_drops ] in
  let report =
    Fuzz.fuzz ~suite ~faults ~max_ops:200 ~mode:Dpm.Adpm ~seed:5 ~count:10
      Sensor.scenario
  in
  match report.Fuzz.fz_violation with
  | None -> Alcotest.fail "the broken property was never violated"
  | Some v ->
    Alcotest.(check string) "failing property" "no-drops" v.Fuzz.v_prop;
    Alcotest.(check bool) "witness window ordered" true
      (v.Fuzz.v_from_seq <= v.Fuzz.v_to_seq);
    Alcotest.(check bool) "shrinking simplified the schedule" true
      (v.Fuzz.v_shrink_steps >= 1);
    Alcotest.(check bool) "crash entries shrunk away" true
      (v.Fuzz.v_schedule.Fuzz.fs_faults.Fault.p_crashes = []);
    Alcotest.(check bool) "duplication shrunk away" true
      (v.Fuzz.v_schedule.Fuzz.fs_faults.Fault.p_dup = 0.);
    (* the minimized schedule reproduces deterministically *)
    let replay1 =
      Fuzz.run_schedule ~mode:Dpm.Adpm ~max_ops:200 Sensor.scenario
        v.Fuzz.v_schedule
    in
    let replay2 =
      Fuzz.run_schedule ~mode:Dpm.Adpm ~max_ops:200 Sensor.scenario
        v.Fuzz.v_schedule
    in
    Alcotest.(check bool) "bit-identical re-run" true (replay1 = replay2);
    Alcotest.(check bool) "re-run equals recorded trace" true
      (replay1 = v.Fuzz.v_events);
    Alcotest.(check bool) "minimized run still violates" true
      (is_fail (verdict_of "no-drops" (Prop.check [ bogus_no_drops ] replay1)));
    (* the artifact round-trips and replays to convergence *)
    let prefix = Filename.temp_file "adpm_fuzz" "" in
    let paths =
      Fuzz.write_artifact ~prefix ~scenario:"sensor" ~mode:Dpm.Adpm v
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
        try Sys.remove prefix with Sys_error _ -> ())
      (fun () ->
        let trace_path = prefix ^ ".trace.jsonl" in
        (match Codec.read_file trace_path with
        | Error msg -> Alcotest.failf "artifact trace unreadable: %s" msg
        | Ok events ->
          Alcotest.(check bool) "artifact trace round-trips" true
            (events = v.Fuzz.v_events);
          let report = Replay.run ~resolve:(Scenario.resolver scenarios_for_replay) events in
          Alcotest.(check bool) "artifact replays to convergence" true
            (Replay.converged report));
        match
          In_channel.with_open_text (prefix ^ ".json") In_channel.input_all
          |> Json.parse
        with
        | Error msg -> Alcotest.failf "artifact meta unparseable: %s" msg
        | Ok meta ->
          Alcotest.(check (option string))
            "meta names the property" (Some "no-drops")
            (Option.bind (Json.member "property" meta) Json.to_str);
          Alcotest.(check bool) "meta has a repro command" true
            (Option.bind (Json.member "repro" meta) Json.to_str <> None))

(* the standard suite holds over a spread of fuzzed schedules (the CI
   fuzz-smoke alias covers more; this keeps the contract in-tree) *)
let test_standard_suite_clean () =
  List.iter
    (fun mode ->
      let report =
        Fuzz.fuzz ~max_ops:300 ~mode ~seed:3 ~count:15 Sensor.scenario
      in
      match report.Fuzz.fz_violation with
      | None -> ()
      | Some v ->
        Alcotest.failf "property %s violated by %s: %s" v.Fuzz.v_prop
          (Fuzz.schedule_to_string v.Fuzz.v_original)
          v.Fuzz.v_reason)
    [ Dpm.Conventional; Dpm.Adpm ]

(* {2 Analyzer: degenerate traces must not leak NaN into JSON} *)

let contains_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_analyze_degenerate () =
  List.iter
    (fun (label, events) ->
      let report = Analyze.analyze events in
      Alcotest.(check int) (label ^ ": no deliveries") 0 report.Analyze.r_deliveries;
      let s = Json.to_string (Analyze.to_json report) in
      Alcotest.(check bool) (label ^ ": no nan in JSON") false
        (contains_substring (String.lowercase_ascii s) "nan");
      match Json.parse s with
      | Error msg -> Alcotest.failf "%s: JSON unparseable: %s" label msg
      | Ok j ->
        Alcotest.(check bool)
          (label ^ ": latency mean is null") true
          (Json.member "delivery_latency_mean" j = Some Json.Null))
    [
      ("empty trace", []);
      ( "run-started only",
        stamp
          [
            Event.Run_started
              { scenario = "x"; mode = "ADPM"; seed = 1; engine = "full" };
          ] );
      ("turns but no deliveries", stamp [ turn "a"; turn "b" ]);
    ]

let test_analyze_counts_turns () =
  let report = Analyze.analyze (stamp [ turn "a"; turn ~at:3 "b" ]) in
  Alcotest.(check int) "turns counted" 2 report.Analyze.r_turns;
  Alcotest.(check int) "turns advance makespan" 3 report.Analyze.r_makespan

let suite =
  [
    Alcotest.test_case "notified-or-resolved verdicts" `Quick test_p1_verdicts;
    Alcotest.test_case "notified-or-resolved excusals" `Quick test_p1_excusals;
    Alcotest.test_case "nested crash windows close in order" `Quick
      test_p1_nested_crash_windows;
    Alcotest.test_case "no-starvation verdicts" `Quick test_p2_verdicts;
    Alcotest.test_case "crash-rejoins verdicts" `Quick test_p3_verdicts;
    Alcotest.test_case "no-deliver-after-drop verdicts" `Quick test_p4_verdicts;
    Alcotest.test_case "no-idle-halt-in-flight verdicts" `Quick test_p5_verdicts;
    Alcotest.test_case "idle round waits for deliveries in transit" `Quick
      test_idle_round_waits_for_deliveries;
    Alcotest.test_case "truncation is refused" `Quick test_truncation_refused;
    Alcotest.test_case "truncated engine trace is refused" `Quick
      test_truncated_trace_refused;
    Alcotest.test_case "collect sink keeps everything" `Quick test_collect_sink;
    QCheck_alcotest.to_alcotest qcheck_notified;
    QCheck_alcotest.to_alcotest qcheck_starvation;
    QCheck_alcotest.to_alcotest qcheck_deliver_after_drop;
    Alcotest.test_case "fault plan shrink candidates" `Quick test_shrink_plan;
    Alcotest.test_case "max delivery delay" `Quick test_max_delivery_delay;
    Alcotest.test_case "fuzz finds, shrinks, replays" `Slow
      test_fuzz_finds_shrinks_replays;
    Alcotest.test_case "standard suite clean on fuzzed schedules" `Slow
      test_standard_suite_clean;
    Alcotest.test_case "analyzer degenerate traces stay NaN-free" `Quick
      test_analyze_degenerate;
    Alcotest.test_case "analyzer counts turns" `Quick test_analyze_counts_turns;
  ]
