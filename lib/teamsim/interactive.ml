open Adpm_util
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

let create ?(tracer = Tracer.null) ~mode ~seed scenario ~designer =
  let compiled = Scenario.compiled scenario ~mode in
  let team = Compiled.designers compiled in
  if not (List.mem designer team) then
    invalid_arg
      (Printf.sprintf "Interactive.create: no designer %s (team: %s)" designer
         (String.concat ", " team));
  let dpm, setup = Compiled.start compiled in
  Dpm.set_tracer dpm tracer;
  if Tracer.active tracer then
    Tracer.emit tracer
      (Event.Run_started
         {
           scenario = scenario.Scenario.sc_name;
           mode = Dpm.mode_to_string mode;
           seed;
           engine = "incremental";
         });
  let rng = Rng.create seed in
  let cfg = Config.default ~mode ~seed in
  let influence = Compiled.influence compiled in
  let mk name = Designer.create cfg ~rng:(Rng.split rng) ~influence name in
  let player_model = mk designer in
  let teammates =
    List.filter_map
      (fun name -> if String.equal name designer then None else Some (mk name))
      team
  in
  let setup_evals =
    match setup with
    | None -> 0
    | Some s ->
      Compiled.trace_setup s tracer;
      Compiled.setup_evaluations s
  in
  { dpm; player = designer; player_model; teammates;
    models = scenario.Scenario.sc_models; setup_evals;
    last_evals = Dpm.eval_count dpm }

let prompt t =
  Printf.sprintf "[%s | %s | op %d | %d violations]"
    t.player
    (Dpm.mode_to_string (Dpm.mode t.dpm))
    (Dpm.op_count t.dpm)
    (List.length (Dpm.known_violations t.dpm))

let finished t = Dpm.solved t.dpm

let describe_op t op =
  ignore t;
  Format.asprintf "%a" Operator.pp op

let apply_and_report t op =
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
  let net = Dpm.network t.dpm in
  let cname cid = (Network.find_constraint net cid).Constr.name in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "executed: %s\n" (describe_op t op));
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
  if finished t then
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

let execute_command t line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> Ok ""
  | [ "help" ] -> Ok help
  | [ "status" ] -> Ok (status t)
  | [ "browse"; obj ] -> (
    match Dpm.find_object t.dpm obj with
    | Some _ -> Ok (Browser.object_browser t.dpm obj)
    | None ->
      Error
        (Printf.sprintf "unknown object %s (known: %s)" obj
           (String.concat ", "
              (List.map
                 (fun o -> o.Design_object.o_name)
                 (Dpm.objects t.dpm)))))
  | [ "props" ] -> Ok (Browser.property_browser t.dpm ~props:(my_properties t))
  | [ "conflicts" ] -> Ok (Browser.conflict_browser t.dpm ~props:(my_properties t))
  | [ "set"; prop; value ] -> (
    match float_of_string_opt value with
    | None -> Error (Printf.sprintf "%s is not a number" value)
    | Some _ when List.mem_assoc prop t.models ->
      Error
        (Printf.sprintf
           "%s is a performance property the tool computes (model: %s)" prop
           (Adpm_expr.Expr.to_string (List.assoc prop t.models)))
    | Some v -> (
      match Designer.synthesis_with_tools t.player_model t.dpm prop v with
      | None ->
        Error
          (Printf.sprintf "%s is not an output of one of your problems" prop)
      | Some op -> Ok (apply_and_report t op)))
  | [ "verify" ] -> (
    match Designer.request_verification t.player_model t.dpm with
    | None -> Error "nothing to verify right now"
    | Some op -> Ok (apply_and_report t op))
  | [ "suggest" ] -> (
    match Designer.choose_operation t.player_model t.dpm with
    | None -> Ok "the designer model would idle (nothing to do)\n"
    | Some op -> Ok (Printf.sprintf "suggested: %s\n" (describe_op t op)))
  | [ "auto" ] -> (
    match Designer.choose_operation t.player_model t.dpm with
    | None -> Ok "nothing to do\n"
    | Some op -> Ok (apply_and_report t op))
  | [ "step" ] ->
    let buf = Buffer.create 256 in
    List.iter
      (fun teammate ->
        match Designer.choose_operation teammate t.dpm with
        | None ->
          Buffer.add_string buf
            (Printf.sprintf "%s idles\n" (Designer.name teammate))
        | Some op -> Buffer.add_string buf (apply_and_report t op))
      t.teammates;
    Ok (Buffer.contents buf)
  | cmd :: _ -> Error (Printf.sprintf "unknown command %s (try 'help')" cmd)

(* Every command is caught uniformly: [Invalid_argument] can surface from
   choose time (e.g. a problem referencing a constraint the network does
   not know) as well as from [Dpm.apply] inside [apply_and_report], on
   the [verify]/[auto]/[step] paths just as on [set]. A long-lived
   session loop (the teamsimd daemon) must get [Error], not a killed
   session. *)
let execute t line =
  match execute_command t line with
  | result -> result
  | exception Invalid_argument msg -> Error msg

let dpm t = t.dpm
let setup_evaluations t = t.setup_evals
let attributed_evaluations t = t.last_evals
