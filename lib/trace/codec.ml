open Event

let status_of_string = function
  | "satisfied" -> Some Satisfied
  | "violated" -> Some Violated
  | "consistent" -> Some Consistent
  | _ -> None

let heuristic_to_string = function
  | Smallest_subspace -> "smallest-subspace"
  | Most_constrained -> "most-constrained"
  | Random_target -> "random-target"
  | Conflict_resolution -> "conflict-resolution"
  | Verification_request -> "verification-request"

let heuristic_of_string = function
  | "smallest-subspace" -> Some Smallest_subspace
  | "most-constrained" -> Some Most_constrained
  | "random-target" -> Some Random_target
  | "conflict-resolution" -> Some Conflict_resolution
  | "verification-request" -> Some Verification_request
  | _ -> None

(* {2 Encoding} *)

let json_of_value = function
  | Vnum f -> Json.Num f
  | Vsym s -> Json.Obj [ ("sym", Json.Str s) ]

let json_of_ints ids = Json.Arr (List.map (fun i -> Json.Num (float_of_int i)) ids)
let json_of_strings ss = Json.Arr (List.map (fun s -> Json.Str s) ss)
let jint i = Json.Num (float_of_int i)

let json_of_subproblem sb =
  Json.Obj
    [
      ("name", Json.Str sb.sb_name);
      ("owner", Json.Str sb.sb_owner);
      ("inputs", json_of_strings sb.sb_inputs);
      ("outputs", json_of_strings sb.sb_outputs);
      ("constraints", json_of_ints sb.sb_constraints);
      ("depends_on", json_of_strings sb.sb_depends_on);
      ( "object",
        match sb.sb_object with Some o -> Json.Str o | None -> Json.Null );
    ]

let json_of_op op =
  let kind_fields =
    match op.op_kind with
    | Synthesis assignments ->
      [
        ("kind", Json.Str "synthesis");
        ( "assign",
          Json.Arr
            (List.map
               (fun (prop, v) -> Json.Arr [ Json.Str prop; json_of_value v ])
               assignments) );
      ]
    | Verification cids ->
      [ ("kind", Json.Str "verification"); ("cids", json_of_ints cids) ]
    | Decompose subs ->
      [
        ("kind", Json.Str "decompose");
        ("subproblems", Json.Arr (List.map json_of_subproblem subs));
      ]
  in
  Json.Obj
    ([ ("designer", Json.Str op.op_designer); ("problem", jint op.op_problem) ]
    @ kind_fields
    @ [ ("motivated_by", json_of_ints op.op_motivated_by) ])

let fields_of_event = function
  | Run_started { scenario; mode; seed; engine } ->
    [
      ("scenario", Json.Str scenario);
      ("mode", Json.Str mode);
      ("seed", jint seed);
      ("engine", Json.Str engine);
    ]
  | Op_submitted { op; choose_evaluations } ->
    [ ("op", json_of_op op); ("choose_evaluations", jint choose_evaluations) ]
  | Op_executed
      { index; designer; kind; evaluations; newly_violated; resolved; skipped; spin }
    ->
    [
      ("index", jint index);
      ("designer", Json.Str designer);
      ("kind", Json.Str kind);
      ("evaluations", jint evaluations);
      ("newly_violated", json_of_ints newly_violated);
      ("resolved", json_of_ints resolved);
      ("skipped", json_of_ints skipped);
      ("spin", Json.Bool spin);
    ]
  | Propagation_started { constraints } -> [ ("constraints", jint constraints) ]
  | Propagation_finished { engine; seeded; evaluations; revisions; waves; empties; fixpoint }
    ->
    [
      ("engine", Json.Str engine);
      ("seeded", jint seeded);
      ("evaluations", jint evaluations);
      ("revisions", jint revisions);
      ("waves", json_of_ints waves);
      ("empties", jint empties);
      ("fixpoint", Json.Bool fixpoint);
    ]
  | Constraint_status_changed { cid; old_status; new_status } ->
    [
      ("cid", jint cid);
      ("old", Json.Str (status_to_string old_status));
      ("new", Json.Str (status_to_string new_status));
    ]
  | Op_completed { index; at } -> [ ("index", jint index); ("at", jint at) ]
  | Turn_started { designer; at } ->
    [ ("designer", Json.Str designer); ("at", jint at) ]
  | Notification_pushed { recipient; op_index; events; violations } ->
    [
      ("recipient", Json.Str recipient);
      ("op_index", jint op_index);
      ("events", json_of_strings events);
      ("violations", json_of_ints violations);
    ]
  | Notification_delivered { recipient; op_index; sent_at; delivered_at; events; violations }
    ->
    [
      ("recipient", Json.Str recipient);
      ("op_index", jint op_index);
      ("sent_at", jint sent_at);
      ("delivered_at", jint delivered_at);
      ("events", json_of_strings events);
      ("violations", json_of_ints violations);
    ]
  | Designer_decision { designer; heuristic; target; alpha; beta } ->
    [
      ("designer", Json.Str designer);
      ("heuristic", Json.Str (heuristic_to_string heuristic));
      ("target", match target with Some t -> Json.Str t | None -> Json.Null);
      ("alpha", jint alpha);
      ("beta", jint beta);
    ]
  | Notification_dropped { recipient; op_index; at }
  | Notification_duplicated { recipient; op_index; at } ->
    [
      ("recipient", Json.Str recipient);
      ("op_index", jint op_index);
      ("at", jint at);
    ]
  | Designer_crashed { designer; at } | Designer_restarted { designer; at } ->
    [ ("designer", Json.Str designer); ("at", jint at) ]
  | Requirement_shifted { prop; value; at } ->
    [ ("prop", Json.Str prop); ("value", Json.Num value); ("at", jint at) ]
  | Run_finished
      { completed; operations; evaluations; setup_evaluations; spins; violations }
    ->
    [
      ("completed", Json.Bool completed);
      ("operations", jint operations);
      ("evaluations", jint evaluations);
      ("setup_evaluations", jint setup_evaluations);
      ("spins", jint spins);
      ("violations", json_of_ints violations);
    ]

let to_json stamped =
  Json.Obj
    ([
       ("seq", jint stamped.seq);
       ("clock", jint stamped.clock);
       ("type", Json.Str (kind_label stamped.event));
     ]
    @ fields_of_event stamped.event)

let to_line stamped = Json.to_string (to_json stamped)

(* {2 Decoding} *)

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Decode_error msg)) fmt

let get j key = match Json.member key j with Some v -> v | None -> fail "missing field %s" key

let get_int j key =
  match Json.to_int (get j key) with Some i -> i | None -> fail "field %s: expected int" key

let get_str j key =
  match Json.to_str (get j key) with Some s -> s | None -> fail "field %s: expected string" key

let get_bool j key =
  match Json.to_bool (get j key) with Some b -> b | None -> fail "field %s: expected bool" key

let get_ints j key =
  match Json.to_list (get j key) with
  | None -> fail "field %s: expected array" key
  | Some items ->
    List.map
      (fun item ->
        match Json.to_int item with
        | Some i -> i
        | None -> fail "field %s: expected int element" key)
      items

let get_strings j key =
  match Json.to_list (get j key) with
  | None -> fail "field %s: expected array" key
  | Some items ->
    List.map
      (fun item ->
        match Json.to_str item with
        | Some s -> s
        | None -> fail "field %s: expected string element" key)
      items

(* Backward-compatible readers: traces recorded before the incremental
   engine lack the per-engine fields, so decoding falls back to defaults
   instead of failing. *)
let get_str_default j key default =
  match Json.member key j with
  | None -> default
  | Some v -> (
    match Json.to_str v with Some s -> s | None -> fail "field %s: expected string" key)

let get_int_default j key default =
  match Json.member key j with
  | None -> default
  | Some v -> (
    match Json.to_int v with Some i -> i | None -> fail "field %s: expected int" key)

let get_str_opt j key =
  match Json.member key j with
  | Some Json.Null | None -> None
  | Some v -> (
    match Json.to_str v with Some s -> Some s | None -> fail "field %s: expected string or null" key)

let value_of_json = function
  | Json.Num f -> Vnum f
  | Json.Obj _ as o -> (
    match Json.member "sym" o with
    | Some (Json.Str s) -> Vsym s
    | _ -> fail "bad value encoding")
  | _ -> fail "bad value encoding"

let subproblem_of_json j =
  {
    sb_name = get_str j "name";
    sb_owner = get_str j "owner";
    sb_inputs = get_strings j "inputs";
    sb_outputs = get_strings j "outputs";
    sb_constraints = get_ints j "constraints";
    sb_depends_on = get_strings j "depends_on";
    sb_object = get_str_opt j "object";
  }

let op_of_json j =
  let kind =
    match get_str j "kind" with
    | "synthesis" -> (
      match Json.to_list (get j "assign") with
      | None -> fail "synthesis: expected assign array"
      | Some pairs ->
        Synthesis
          (List.map
             (fun pair ->
               match Json.to_list pair with
               | Some [ Json.Str prop; v ] -> (prop, value_of_json v)
               | _ -> fail "synthesis: bad assignment pair")
             pairs))
    | "verification" -> Verification (get_ints j "cids")
    | "decompose" -> (
      match Json.to_list (get j "subproblems") with
      | None -> fail "decompose: expected subproblems array"
      | Some subs -> Decompose (List.map subproblem_of_json subs))
    | k -> fail "unknown op kind %s" k
  in
  {
    op_designer = get_str j "designer";
    op_problem = get_int j "problem";
    op_kind = kind;
    op_motivated_by = get_ints j "motivated_by";
  }

let status_field j key =
  let s = get_str j key in
  match status_of_string s with
  | Some st -> st
  | None -> fail "field %s: unknown status %s" key s

let event_of_json j =
  match get_str j "type" with
  | "run_started" ->
    Run_started
      {
        scenario = get_str j "scenario";
        mode = get_str j "mode";
        seed = get_int j "seed";
        engine = get_str_default j "engine" "full";
      }
  | "op_submitted" ->
    Op_submitted
      { op = op_of_json (get j "op"); choose_evaluations = get_int j "choose_evaluations" }
  | "op_executed" ->
    Op_executed
      {
        index = get_int j "index";
        designer = get_str j "designer";
        kind = get_str j "kind";
        evaluations = get_int j "evaluations";
        newly_violated = get_ints j "newly_violated";
        resolved = get_ints j "resolved";
        skipped = get_ints j "skipped";
        spin = get_bool j "spin";
      }
  | "propagation_started" ->
    Propagation_started { constraints = get_int j "constraints" }
  | "propagation_finished" ->
    let waves = get_ints j "waves" in
    Propagation_finished
      {
        engine = get_str_default j "engine" "full";
        seeded = get_int_default j "seeded" (match waves with w :: _ -> w | [] -> 0);
        evaluations = get_int j "evaluations";
        revisions = get_int_default j "revisions" (List.fold_left ( + ) 0 waves);
        waves;
        empties = get_int j "empties";
        fixpoint = get_bool j "fixpoint";
      }
  | "constraint_status_changed" ->
    Constraint_status_changed
      {
        cid = get_int j "cid";
        old_status = status_field j "old";
        new_status = status_field j "new";
      }
  | "op_completed" ->
    Op_completed { index = get_int j "index"; at = get_int j "at" }
  | "turn_started" ->
    Turn_started { designer = get_str j "designer"; at = get_int j "at" }
  | "notification_pushed" ->
    Notification_pushed
      {
        recipient = get_str j "recipient";
        (* traces recorded before the checker subsystem lack the pairing
           index; -1 marks "unknown operation" *)
        op_index = get_int_default j "op_index" (-1);
        events = get_strings j "events";
        violations = get_ints j "violations";
      }
  | "notification_delivered" ->
    Notification_delivered
      {
        recipient = get_str j "recipient";
        op_index = get_int j "op_index";
        sent_at = get_int j "sent_at";
        delivered_at = get_int j "delivered_at";
        events = get_strings j "events";
        violations = get_ints j "violations";
      }
  | "designer_decision" ->
    let h = get_str j "heuristic" in
    Designer_decision
      {
        designer = get_str j "designer";
        heuristic =
          (match heuristic_of_string h with
          | Some h -> h
          | None -> fail "unknown heuristic %s" h);
        target = get_str_opt j "target";
        alpha = get_int j "alpha";
        beta = get_int j "beta";
      }
  | "notification_dropped" ->
    Notification_dropped
      {
        recipient = get_str j "recipient";
        op_index = get_int j "op_index";
        at = get_int j "at";
      }
  | "notification_duplicated" ->
    Notification_duplicated
      {
        recipient = get_str j "recipient";
        op_index = get_int j "op_index";
        at = get_int j "at";
      }
  | "designer_crashed" ->
    Designer_crashed { designer = get_str j "designer"; at = get_int j "at" }
  | "designer_restarted" ->
    Designer_restarted { designer = get_str j "designer"; at = get_int j "at" }
  | "requirement_shifted" ->
    let value =
      match Json.to_float (get j "value") with
      | Some v -> v
      | None -> fail "field value: expected number"
    in
    Requirement_shifted { prop = get_str j "prop"; value; at = get_int j "at" }
  | "run_finished" ->
    Run_finished
      {
        completed = get_bool j "completed";
        operations = get_int j "operations";
        evaluations = get_int j "evaluations";
        setup_evaluations = get_int j "setup_evaluations";
        spins = get_int j "spins";
        violations = get_ints j "violations";
      }
  | t -> fail "unknown event type %s" t

let of_json j =
  match
    { seq = get_int j "seq"; clock = get_int j "clock"; event = event_of_json j }
  with
  | stamped -> Ok stamped
  | exception Decode_error msg -> Error msg

let of_line line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "bad JSON: %s" msg)
  | Ok j -> of_json j

(* {2 Files} *)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
    let lines =
      String.split_on_char '\n' contents
      |> List.filter (fun l -> String.trim l <> "")
    in
    let rec decode acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
        match of_line line with
        | Ok stamped -> decode (stamped :: acc) (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
    in
    decode [] 1 lines
