(* Gap attribution for traced simulations.

   The benchmark stamps every trace event with the host clock the moment
   it reaches the benchmark's sink. Each gap between two consecutive
   stamps (plus the gap from the [Engine.run] call to the first event and
   from the last event to the return) is charged to exactly one layer, so
   the layer totals partition the traced wall time. The first matching
   rule wins:

   1. before the first [Turn_started]: [engine.setup], unless the gap is
      inside a propagation pair (then [propagate])
   2. closed by [Propagation_finished]: [propagate]
   3. closed by [Propagation_started]: [dpm.apply]
   4. opened by [Turn_started] or [Designer_decision]: [designer]
   5. opened by [Op_submitted] and closed by [Constraint_status_changed],
      [Notification_pushed] or [Op_executed]: [dpm.apply] (an operation
      that runs no propagation)
   6. opened by [Propagation_finished], [Constraint_status_changed] or
      [Notification_pushed]: [dpm.notify]
   7. anything else: [engine.dispatch] *)

type kind =
  | Turn_started
  | Designer_decision
  | Op_submitted
  | Op_executed
  | Propagation_started
  | Propagation_finished
  | Status_changed
  | Notification_pushed
  | Other  (** every other event, and the end of the run *)

type layer =
  | Engine_setup
  | Designer
  | Propagate
  | Dpm_apply
  | Dpm_notify
  | Engine_dispatch

let layers =
  [ Engine_setup; Designer; Propagate; Dpm_apply; Dpm_notify; Engine_dispatch ]

let layer_name = function
  | Engine_setup -> "engine.setup"
  | Designer -> "designer"
  | Propagate -> "propagate"
  | Dpm_apply -> "dpm.apply"
  | Dpm_notify -> "dpm.notify"
  | Engine_dispatch -> "engine.dispatch"

let index = function
  | Engine_setup -> 0
  | Designer -> 1
  | Propagate -> 2
  | Dpm_apply -> 3
  | Dpm_notify -> 4
  | Engine_dispatch -> 5

let classify ~seen_turn ~in_propagation ~opened ~closed =
  if not seen_turn then if in_propagation then Propagate else Engine_setup
  else
    match (opened, closed) with
    | _, Propagation_finished -> Propagate
    | _, Propagation_started -> Dpm_apply
    | (Turn_started | Designer_decision), _ -> Designer
    | Op_submitted, (Status_changed | Notification_pushed | Op_executed) ->
      Dpm_apply
    | (Propagation_finished | Status_changed | Notification_pushed), _ ->
      Dpm_notify
    | _ -> Engine_dispatch

type t = {
  ns : int array;
  spans : int array;
  mutable wall : int;
  mutable runs : int;
  (* state of the run in progress *)
  mutable opened : kind;
  mutable last : int;
  mutable run_start : int;
  mutable seen_turn : bool;
  mutable in_propagation : bool;
}

let create () =
  {
    ns = Array.make (List.length layers) 0;
    spans = Array.make (List.length layers) 0;
    wall = 0;
    runs = 0;
    opened = Other;
    last = 0;
    run_start = 0;
    seen_turn = false;
    in_propagation = false;
  }

let start t now =
  t.opened <- Other;
  t.last <- now;
  t.run_start <- now;
  t.seen_turn <- false;
  t.in_propagation <- false

let charge t closed now =
  let layer =
    classify ~seen_turn:t.seen_turn ~in_propagation:t.in_propagation
      ~opened:t.opened ~closed
  in
  let i = index layer in
  t.ns.(i) <- t.ns.(i) + (now - t.last);
  t.spans.(i) <- t.spans.(i) + 1;
  t.last <- now

let event t kind now =
  charge t kind now;
  (match kind with
  | Turn_started -> t.seen_turn <- true
  | Propagation_started -> t.in_propagation <- true
  | Propagation_finished -> t.in_propagation <- false
  | _ -> ());
  t.opened <- kind

let stop t now =
  charge t Other now;
  t.wall <- t.wall + (now - t.run_start);
  t.runs <- t.runs + 1

let ns t layer = t.ns.(index layer)
let spans t layer = t.spans.(index layer)
let wall_ns t = t.wall
let runs t = t.runs
let total_ns t = Array.fold_left ( + ) 0 t.ns
