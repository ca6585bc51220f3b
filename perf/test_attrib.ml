(* The gap-attribution rules on synthetic stamped-event sequences. Each
   case lists the events of one run with their host-clock stamps and the
   layer totals the rules must produce; every case also checks that the
   totals sum to the run's wall time. *)

open Attrib

let run events ~stop =
  let t = create () in
  start t 0;
  List.iter (fun (kind, at) -> event t kind at) events;
  Attrib.stop t stop;
  t

let check_totals name t expected =
  List.iter
    (fun layer ->
      let want = Option.value ~default:0 (List.assoc_opt layer expected) in
      Alcotest.(check int) (name ^ ": " ^ layer_name layer) want (ns t layer))
    layers;
  Alcotest.(check int) (name ^ ": layers sum to the wall time") (wall_ns t)
    (total_ns t)

(* A designer that looks and does nothing, then a turn that acts. *)
let idle_turn () =
  let t =
    run ~stop:80
      [
        (Other, 5);
        (Turn_started, 10);
        (Turn_started, 25);
        (Designer_decision, 40);
        (Op_submitted, 60);
        (Op_executed, 70);
      ]
  in
  check_totals "idle turn" t
    [ (Engine_setup, 10); (Designer, 50); (Dpm_apply, 10); (Engine_dispatch, 10) ];
  Alcotest.(check int) "designer gaps" 3 (spans t Designer)

(* Conventional mode: no propagation, so [Op_submitted] is followed
   directly by the status diff and the notifications. *)
let conventional_op () =
  let t =
    run ~stop:100
      [
        (Turn_started, 10);
        (Op_submitted, 30);
        (Status_changed, 50);
        (Notification_pushed, 60);
        (Op_executed, 75);
        (Other, 90);
      ]
  in
  check_totals "conventional op" t
    [
      (Engine_setup, 10);
      (Designer, 20);
      (Dpm_apply, 20);
      (Dpm_notify, 25);
      (Engine_dispatch, 25);
    ]

(* ADPM's initial propagation runs before the first turn: the gap inside
   the propagation pair is propagation, the rest set-up. *)
let setup_propagation () =
  let t =
    run ~stop:40
      [
        (Other, 2);
        (Propagation_started, 4);
        (Propagation_finished, 20);
        (Status_changed, 22);
        (Turn_started, 30);
      ]
  in
  check_totals "setup propagation" t
    [ (Engine_setup, 14); (Propagate, 16); (Designer, 10) ]

(* At latency 2 a delivery can land between [Op_submitted] and
   [Propagation_started]: the gap before it is dispatch, the gap after
   it is still the operation's application. *)
let delayed_delivery () =
  let t =
    run ~stop:100
      [
        (Turn_started, 5);
        (Designer_decision, 10);
        (Op_submitted, 20);
        (Other, 30);
        (Propagation_started, 45);
        (Propagation_finished, 70);
        (Notification_pushed, 80);
        (Op_executed, 90);
      ]
  in
  check_totals "delayed delivery" t
    [
      (Engine_setup, 5);
      (Designer, 15);
      (Engine_dispatch, 20);
      (Dpm_apply, 15);
      (Propagate, 25);
      (Dpm_notify, 20);
    ]

(* Totals accumulate over runs, and the state of one run does not leak
   into the next: the second run starts in set-up again. *)
let two_runs () =
  let t = create () in
  start t 0;
  event t Turn_started 10;
  event t Designer_decision 20;
  stop t 30;
  start t 100;
  event t Other 110;
  stop t 115;
  check_totals "two runs" t
    [ (Engine_setup, 25); (Designer, 20) ];
  Alcotest.(check int) "runs" 2 (runs t)

let () =
  Alcotest.run "perf"
    [
      ( "attribution",
        [
          Alcotest.test_case "idle turn" `Quick idle_turn;
          Alcotest.test_case "conventional op" `Quick conventional_op;
          Alcotest.test_case "setup propagation" `Quick setup_propagation;
          Alcotest.test_case "delayed delivery" `Quick delayed_delivery;
          Alcotest.test_case "two runs" `Quick two_runs;
        ] );
    ]
