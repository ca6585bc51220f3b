open Adpm_csp
open Adpm_core
open Adpm_trace

type t = {
  dpm : Dpm.t;
  player : string;
  player_model : Designer.t;
  teammates : Designer.t list;
  models : (string * Adpm_expr.Expr.t) list;
  setup_evals : int;
  mutable last_evals : int;
      (* N_T already attributed to an emitted [Op_submitted]; the delta at
         the next submission is that op's decision cost (suggest/browse
         evaluations between applies), mirroring the engine *)
}

(* A session is a run in which one human plays [designer]: it starts as
   {!Engine.run} does, splitting the player's generator first. *)
let create ?(tracer = Tracer.null) ~mode ~seed scenario ~designer =
  let team = Compiled.designers (Scenario.compiled scenario ~mode) in
  if not (List.mem designer team) then
    invalid_arg
      (Printf.sprintf "Interactive.create: no designer %s (team: %s)" designer
         (String.concat ", " team));
  let teammates = List.filter (fun n -> not (String.equal n designer)) team in
  let dpm, _, designers, setup_evals =
    Engine.start ~tracer (Config.default ~mode ~seed) scenario
      ~order:(designer :: teammates) ~record:ignore
  in
  { dpm; player = designer; player_model = List.hd designers;
    teammates = List.tl designers; models = scenario.Scenario.sc_models;
    setup_evals; last_evals = Dpm.eval_count dpm }

let prompt t =
  Printf.sprintf "[%s | %s | op %d | %d violations]"
    t.player
    (Dpm.mode_to_string (Dpm.mode t.dpm))
    (Dpm.op_count t.dpm)
    (List.length (Dpm.known_violations t.dpm))

let finished t = Dpm.solved t.dpm

let describe_op op = Format.asprintf "%a" Operator.pp op

(* {2 Commands: parse, run, render}

   Every command line takes one path: [parse] turns it into a [command],
   [run] makes the command's state effects and returns an [outcome], and
   [render] turns the outcome into reply text. [execute] renders what
   [run] returns; [replay] only runs, so a rebuilt session skips the
   views and the operation reports its clients already saw. *)

type view = Blank | Help | Status | Props | Conflicts

type command =
  | View of view
  | Browse of string
  | Set of string * float
  | Verify
  | Suggest
  | Auto
  | Step
  | Invalid of string  (* an unknown command or an unparseable [set] *)

(* One applied operation and whether the top-level problem was solved
   right after it. *)
type applied = { a_op : Operator.t; a_result : Dpm.result; a_finished : bool }

type outcome =
  | Viewed of view  (* read nothing mutable: rendered from the state *)
  | Browsed of string
  | Suggested of Operator.t option
  | Applied of applied
  | Idle
  | Stepped of (string * applied option) list  (* per teammate *)
  | Failed of string

let apply t op =
  (* a rejected operation must leave no [Op_submitted] behind: the trace
     has to stay replayable *)
  Dpm.validate t.dpm op;
  let tracer = Dpm.tracer t.dpm in
  if Tracer.active tracer then
    Tracer.emit tracer
      (Event.Op_submitted
         {
           op = Operator.to_trace_spec op;
           choose_evaluations = Dpm.eval_count t.dpm - t.last_evals;
         });
  let result = Dpm.apply t.dpm op in
  t.last_evals <- Dpm.eval_count t.dpm;
  (* route outcomes through the mailboxes the discrete-event engine uses,
     at latency 0: deliver to everyone, then absorb immediately *)
  let feed d =
    let own = String.equal (Designer.name d) op.Operator.op_designer in
    Designer.deliver d ~own op result;
    ignore (Designer.drain d t.dpm : int)
  in
  feed t.player_model;
  List.iter feed t.teammates;
  { a_op = op; a_result = result; a_finished = finished t }

let report t { a_op = op; a_result = result; a_finished } =
  let net = Dpm.network t.dpm in
  let cname cid = (Network.find_constraint net cid).Constr.name in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "executed: %s\n" (describe_op op));
  Buffer.add_string buf
    (Printf.sprintf "evaluations: %d\n" result.Dpm.r_evaluations);
  List.iter
    (fun cid ->
      Buffer.add_string buf (Printf.sprintf "VIOLATION: %s\n" (cname cid)))
    result.Dpm.r_newly_violated;
  List.iter
    (fun cid ->
      Buffer.add_string buf (Printf.sprintf "resolved: %s\n" (cname cid)))
    result.Dpm.r_resolved;
  (match result.Dpm.r_skipped with
  | [] -> ()
  | skipped ->
    Buffer.add_string buf
      (Printf.sprintf "skipped (not eligible): %s\n"
         (String.concat ", " (List.map cname skipped))));
  if result.Dpm.r_spin then Buffer.add_string buf "this operation was a design spin\n";
  if a_finished then
    Buffer.add_string buf "\nThe top-level problem is SOLVED. Congratulations.\n";
  Buffer.contents buf

let my_properties t =
  List.sort_uniq compare
    (List.concat_map Problem.properties (Dpm.problems_owned_by t.dpm t.player))

let status t =
  let net = Dpm.network t.dpm in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "PROBLEMS\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "  %-24s owner=%-10s %s\n" p.Problem.pr_name
           p.Problem.pr_owner
           (Problem.status_to_string p.Problem.pr_status)))
    (Dpm.problems t.dpm);
  Buffer.add_string buf "\nYOUR PROPERTIES\n";
  List.iter
    (fun prop ->
      if Network.mem_prop net prop then begin
        let value =
          match Network.assigned net prop with
          | Some v -> Value.to_string v
          | None -> "<unbound>"
        in
        Buffer.add_string buf (Printf.sprintf "  %-20s = %s\n" prop value)
      end)
    (my_properties t);
  let violations = Dpm.known_violations t.dpm in
  Buffer.add_string buf
    (Printf.sprintf "\nKNOWN VIOLATIONS: %d\n" (List.length violations));
  List.iter
    (fun cid ->
      Buffer.add_string buf
        (Printf.sprintf "  %s\n"
           (Constr.to_string (Network.find_constraint net cid))))
    violations;
  Buffer.contents buf

let help =
  {|commands:
  status              problems, your properties, known violations
  browse OBJECT       object browser (Fig. 2 view)
  props               property/constraint browser (Fig. 3 view)
  conflicts           conflict-resolution view (Fig. 4)
  set PROP VALUE      synthesis operation (tools recompute derived values)
  verify              request the verification you would issue now
  suggest             what the simulated designer model would do
  auto                execute the suggested operation
  step                every simulated teammate takes one turn
  help                this text
  quit                leave the session (handled by the client)
|}

let parse line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> View Blank
  | [ "help" ] -> View Help
  | [ "status" ] -> View Status
  | [ "browse"; obj ] -> Browse obj
  | [ "props" ] -> View Props
  | [ "conflicts" ] -> View Conflicts
  | [ "set"; prop; value ] -> (
    match float_of_string_opt value with
    | None -> Invalid (Printf.sprintf "%s is not a number" value)
    | Some v -> Set (prop, v))
  | [ "verify" ] -> Verify
  | [ "suggest" ] -> Suggest
  | [ "auto" ] -> Auto
  | [ "step" ] -> Step
  | cmd :: _ -> Invalid (Printf.sprintf "unknown command %s (try 'help')" cmd)

(* Every designer choice (RNG draws, tabu memory) and every apply happens
   here. [browse] is the one view that runs: its relaxed-feasibility
   queries are charged to the evaluation counter, and its text comes out
   of the same pass. *)
let run t = function
  | View v -> Viewed v
  | Browse obj -> (
    match Dpm.find_object t.dpm obj with
    | Some _ -> Browsed (Browser.object_browser t.dpm obj)
    | None ->
      Failed
        (Printf.sprintf "unknown object %s (known: %s)" obj
           (String.concat ", "
              (List.map
                 (fun o -> o.Design_object.o_name)
                 (Dpm.objects t.dpm)))))
  | Set (prop, _) when List.mem_assoc prop t.models ->
    Failed
      (Printf.sprintf
         "%s is a performance property the tool computes (model: %s)" prop
         (Adpm_expr.Expr.to_string (List.assoc prop t.models)))
  | Set (prop, v) -> (
    match Designer.synthesis_with_tools t.player_model t.dpm prop v with
    | None ->
      Failed (Printf.sprintf "%s is not an output of one of your problems" prop)
    | Some op -> Applied (apply t op))
  | Verify -> (
    match Designer.request_verification t.player_model t.dpm with
    | None -> Failed "nothing to verify right now"
    | Some op -> Applied (apply t op))
  | Suggest -> Suggested (Designer.choose_operation t.player_model t.dpm)
  | Auto -> (
    match Designer.choose_operation t.player_model t.dpm with
    | None -> Idle
    | Some op -> Applied (apply t op))
  | Step ->
    Stepped
      (List.map
         (fun teammate ->
           ( Designer.name teammate,
             Option.map (apply t) (Designer.choose_operation teammate t.dpm) ))
         t.teammates)
  | Invalid msg -> Failed msg

let render t = function
  | Viewed Blank -> Ok ""
  | Viewed Help -> Ok help
  | Viewed Status -> Ok (status t)
  | Viewed Props -> Ok (Browser.property_browser t.dpm ~props:(my_properties t))
  | Viewed Conflicts ->
    Ok (Browser.conflict_browser t.dpm ~props:(my_properties t))
  | Browsed text -> Ok text
  | Suggested None -> Ok "the designer model would idle (nothing to do)\n"
  | Suggested (Some op) -> Ok (Printf.sprintf "suggested: %s\n" (describe_op op))
  | Applied a -> Ok (report t a)
  | Idle -> Ok "nothing to do\n"
  | Stepped turns ->
    Ok
      (String.concat ""
         (List.map
            (function
              | name, None -> Printf.sprintf "%s idles\n" name
              | _, Some a -> report t a)
            turns))
  | Failed msg -> Error msg

(* Every command is caught uniformly: [Invalid_argument] can surface from
   choose time (e.g. a problem referencing a constraint the network does
   not know) as well as from [Dpm.validate] inside [apply], on the
   [verify]/[auto]/[step] paths just as on [set]. A long-lived session
   loop (the teamsimd daemon) must get [Error], not a killed session. *)
let execute t line =
  match render t (run t (parse line)) with
  | reply -> reply
  | exception Invalid_argument msg -> Error msg

let replay t line =
  match run t (parse line) with
  | (_ : outcome) -> ()
  | exception Invalid_argument _ -> ()

let dpm t = t.dpm
let setup_evaluations t = t.setup_evals
let attributed_evaluations t = t.last_evals
