open Adpm_csp
open Adpm_core
open Adpm_trace

type mismatch = { mm_label : string; mm_expected : string; mm_actual : string }

type report = {
  rp_scenario : string;
  rp_mode : Dpm.mode;
  rp_seed : int;
  rp_operations : int;
  rp_events : int;
  rp_finished : bool;
  rp_mismatches : mismatch list;
}

let converged r = r.rp_finished && r.rp_mismatches = []

exception Replay_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Replay_error s)) fmt

let ints_to_string ids =
  "[" ^ String.concat "," (List.map string_of_int ids) ^ "]"

let status_of_constr = function
  | Constr.Satisfied -> Event.Satisfied
  | Constr.Violated -> Event.Violated
  | Constr.Consistent -> Event.Consistent

let run ~resolve events =
  let scenario_name, mode_name, seed, engine_name =
    match
      List.find_map
        (fun s ->
          match s.Event.event with
          | Event.Run_started { scenario; mode; seed; engine } ->
            Some (scenario, mode, seed, engine)
          | _ -> None)
        events
    with
    | Some header -> header
    | None -> fail "trace contains no run_started event"
  in
  let scenario =
    match resolve scenario_name with
    | sc -> sc
    | exception Invalid_argument msg ->
      fail "trace references unresolvable scenario %S: %s" scenario_name msg
  in
  let mode =
    match Dpm.mode_of_string mode_name with
    | Some m -> m
    | None -> fail "trace references unknown mode %S" mode_name
  in
  (* Traces recorded by the retired from-scratch engine say "full" (so
     does a header without the field). That engine charged every
     propagation a whole HC4 run; dropping the persisted box store before
     each propagation sends the incremental engine down its from-scratch
     path, the same fixpoint, so the recorded per-op N_T is reproduced. *)
  let from_scratch =
    match engine_name with
    | "incremental" -> false
    | "full" -> true
    | other -> fail "trace references unknown engine %S" other
  in
  (* the engine's pre-turn propagation (its cost is recorded separately in
     the run_finished event, so it is checked, not merged into N_T); it
     starts from no persisted box store, so it is the from-scratch run
     either engine made *)
  let dpm, setup = Compiled.start (Scenario.compiled scenario ~mode) in
  let setup_evals = Option.fold ~none:0 ~some:Compiled.setup_evaluations setup in
  let before_propagation () =
    if from_scratch then Network.invalidate_prop_state (Dpm.network dpm)
  in
  let mismatches = ref [] in
  let add label expected actual =
    if not (String.equal expected actual) then
      mismatches :=
        { mm_label = label; mm_expected = expected; mm_actual = actual }
        :: !mismatches
  in
  let results : (int, Operator.t * Dpm.result) Hashtbl.t =
    Hashtbl.create 256
  in
  let last_status : (int, Event.status) Hashtbl.t = Hashtbl.create 64 in
  let replayed = ref 0 in
  let finished = ref false in
  List.iter
    (fun stamped ->
      match stamped.Event.event with
      | Event.Op_submitted { op; choose_evaluations } ->
        (* decision-time evaluations (relaxed feasibility queries) happen
           outside [Dpm.apply]; re-charge them so N_T is comparable *)
        Dpm.charge_evaluations dpm choose_evaluations;
        let op = Operator.of_trace_spec op in
        before_propagation ();
        let result =
          match Dpm.apply dpm op with
          | r -> r
          | exception Invalid_argument msg ->
            fail "trace submits an inapplicable operation %d: %s"
              (!replayed + 1) msg
        in
        incr replayed;
        Hashtbl.replace results result.Dpm.r_index (op, result)
      | Event.Op_executed
          {
            index;
            designer;
            kind;
            evaluations;
            newly_violated;
            resolved;
            skipped;
            spin;
          } -> (
        let label what = Printf.sprintf "op %d %s" index what in
        match Hashtbl.find_opt results index with
        | None -> add (label "replayed") "present" "missing"
        | Some (op, r) ->
          add (label "designer") designer op.Operator.op_designer;
          add (label "kind") kind (Operator.kind_label op);
          add (label "evaluations") (string_of_int evaluations)
            (string_of_int r.Dpm.r_evaluations);
          add (label "newly-violated")
            (ints_to_string (List.sort compare newly_violated))
            (ints_to_string (List.sort compare r.Dpm.r_newly_violated));
          add (label "resolved")
            (ints_to_string (List.sort compare resolved))
            (ints_to_string (List.sort compare r.Dpm.r_resolved));
          add (label "skipped")
            (ints_to_string (List.sort compare skipped))
            (ints_to_string (List.sort compare r.Dpm.r_skipped));
          add (label "spin") (string_of_bool spin)
            (string_of_bool r.Dpm.r_spin))
      | Event.Constraint_status_changed { cid; new_status; _ } ->
        Hashtbl.replace last_status cid new_status
      | Event.Requirement_shifted { prop; value; _ } -> (
        (* re-apply the shift so every later operation executes against
           the moved requirement (and, in ADPM mode, the same propagation
           cost is re-charged) *)
        before_propagation ();
        match Dpm.shift_requirement dpm ~prop ~value with
        | (_ : (int * Constr.status * Constr.status) list) -> ()
        | exception Invalid_argument msg ->
          fail "trace records an inapplicable shift of %S: %s" prop msg)
      | Event.Run_finished
          {
            completed;
            operations;
            evaluations;
            setup_evaluations;
            spins;
            violations;
          } ->
        finished := true;
        add "completed" (string_of_bool completed)
          (string_of_bool (Dpm.solved dpm && Dpm.ground_truth_solved dpm));
        add "operations (N_O)" (string_of_int operations)
          (string_of_int (Dpm.op_count dpm));
        add "evaluations (N_T)" (string_of_int evaluations)
          (string_of_int (Dpm.eval_count dpm));
        add "setup evaluations" (string_of_int setup_evaluations)
          (string_of_int setup_evals);
        add "spins" (string_of_int spins)
          (string_of_int (Dpm.spin_count dpm));
        add "violations" (ints_to_string violations)
          (ints_to_string (List.sort compare (Dpm.known_violations dpm)));
        let cids =
          List.sort compare
            (Hashtbl.fold (fun cid _ acc -> cid :: acc) last_status [])
        in
        List.iter
          (fun cid ->
            add
              (Printf.sprintf "constraint %d final status" cid)
              (Event.status_to_string (Hashtbl.find last_status cid))
              (Event.status_to_string
                 (status_of_constr (Dpm.known_status dpm cid))))
          cids
      | Event.Run_started _ | Event.Propagation_started _
      | Event.Propagation_finished _ | Event.Notification_pushed _
      | Event.Turn_started _ | Event.Op_completed _
      | Event.Notification_delivered _
      | Event.Notification_dropped _ | Event.Notification_duplicated _
      | Event.Designer_crashed _ | Event.Designer_restarted _
      | Event.Designer_decision _ ->
        ())
    events;
  {
    rp_scenario = scenario_name;
    rp_mode = mode;
    rp_seed = seed;
    rp_operations = !replayed;
    rp_events = List.length events;
    rp_finished = !finished;
    rp_mismatches = List.rev !mismatches;
  }

let render r =
  let b = Buffer.create 256 in
  Printf.bprintf b "replay: scenario=%s mode=%s seed=%d\n" r.rp_scenario
    (Dpm.mode_to_string r.rp_mode)
    r.rp_seed;
  Printf.bprintf b "replayed %d operations from %d trace events\n"
    r.rp_operations r.rp_events;
  if not r.rp_finished then
    Buffer.add_string b
      "trace has no run_finished event: recording is incomplete\n";
  (match r.rp_mismatches with
  | [] ->
    if r.rp_finished then
      Buffer.add_string b "converged: replay matches the recorded run\n"
  | ms ->
    Printf.bprintf b "DIVERGED: %d mismatch(es)\n" (List.length ms);
    List.iter
      (fun m ->
        Printf.bprintf b "  %-32s recorded %s, replayed %s\n" m.mm_label
          m.mm_expected m.mm_actual)
      ms);
  Buffer.contents b
