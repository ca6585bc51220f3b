open Adpm_core
open Adpm_teamsim
open Adpm_trace
module Json = Adpm_trace.Json

type t = {
  ss_id : string;
  ss_scenario : string;
  ss_sc : Scenario.t;
  ss_mode : Dpm.mode;
  ss_seed : int;
  ss_designer : string;
  ss_session : Interactive.t;
  ss_buf : Sink.Collect.buffer;
  ss_tracer : Tracer.t;
  mutable ss_commands : string list;  (* newest first *)
  mutable ss_command_count : int;  (* [List.length ss_commands] *)
}

let reference t = t.ss_scenario
let scenario t = t.ss_sc
let interactive t = t.ss_session
let command_count t = t.ss_command_count

let create ~resolve ~id ~scenario ~mode ~seed ~designer =
  match (resolve scenario : (Scenario.t, string) result) with
  | Error msg -> Error msg
  | Ok sc -> (
    let buf, sink = Sink.collector () in
    let tracer = Tracer.create sink in
    match Interactive.create ~tracer ~mode ~seed sc ~designer with
    | session ->
      Ok
        {
          ss_id = id;
          ss_scenario = scenario;
          ss_sc = sc;
          ss_mode = mode;
          ss_seed = seed;
          ss_designer = designer;
          ss_session = session;
          ss_buf = buf;
          ss_tracer = tracer;
          ss_commands = [];
          ss_command_count = 0;
        }
    | exception Invalid_argument msg -> Error msg)

(* Log the line before running it: replay-on-resume must re-issue every
   command (including rejected ones) so the designer models' RNG and tabu
   state advance identically. *)
let log_command t line =
  t.ss_commands <- line :: t.ss_commands;
  t.ss_command_count <- t.ss_command_count + 1

let exec t line =
  log_command t line;
  Interactive.execute t.ss_session line

let replay t line =
  log_command t line;
  Interactive.replay t.ss_session line

let prompt t = Interactive.prompt t.ss_session
let finished t = Interactive.finished t.ss_session

let fingerprint_of_interactive session =
  let dpm = Interactive.dpm session in
  Printf.sprintf "ops=%d evals=%d spins=%d solved=%b violations=[%s]"
    (Dpm.op_count dpm)
    (Interactive.attributed_evaluations session)
    (Dpm.spin_count dpm) (Dpm.solved dpm)
    (String.concat ","
       (List.map string_of_int
          (List.sort compare (Dpm.known_violations dpm))))

let fingerprint t = fingerprint_of_interactive t.ss_session

let status_fields t =
  let dpm = Interactive.dpm t.ss_session in
  [
    ("session", Json.Str t.ss_id);
    ("scenario", Json.Str t.ss_scenario);
    ("mode", Json.Str (Dpm.mode_to_string t.ss_mode));
    ("seed", Json.Num (float_of_int t.ss_seed));
    ("designer", Json.Str t.ss_designer);
    ("prompt", Json.Str (prompt t));
    ("finished", Json.Bool (finished t));
    ("fingerprint", Json.Str (fingerprint t));
    ("operations", Json.Num (float_of_int (Dpm.op_count dpm)));
    ( "evaluations",
      Json.Num (float_of_int (Interactive.attributed_evaluations t.ss_session))
    );
    ("spins", Json.Num (float_of_int (Dpm.spin_count dpm)));
    ( "violations",
      Json.Arr
        (List.map
           (fun cid -> Json.Num (float_of_int cid))
           (List.sort compare (Dpm.known_violations (Interactive.dpm t.ss_session))))
    );
    ("commands", Json.Num (float_of_int t.ss_command_count));
    ("events", Json.Num (float_of_int (Sink.Collect.length t.ss_buf)));
  ]

(* A synthetic closing event, NOT appended to the live buffer: the
   session keeps running after a checkpoint, and a later checkpoint must
   build its own closing frame from the later state. *)
let closing_event t =
  let dpm = Interactive.dpm t.ss_session in
  {
    Event.seq = Tracer.seq t.ss_tracer;
    clock = Tracer.clock t.ss_tracer;
    event =
      Event.Run_finished
        {
          completed = Dpm.solved dpm && Dpm.ground_truth_solved dpm;
          operations = Dpm.op_count dpm;
          evaluations = Interactive.attributed_evaluations t.ss_session;
          setup_evaluations = Interactive.setup_evaluations t.ss_session;
          spins = Dpm.spin_count dpm;
          violations = List.sort compare (Dpm.known_violations dpm);
        };
  }

(* The checkpoint header and the write-ahead journal header share one
   format (the journal reuses the checkpoint shape under a different
   marker key), so resume-from-checkpoint and journal recovery parse
   through the same code path. *)
let header_fields ~marker t =
  [
    (marker, Json.Num 1.);
    ("scenario", Json.Str t.ss_scenario);
    ("mode", Json.Str (Dpm.mode_to_string t.ss_mode));
    ("seed", Json.Num (float_of_int t.ss_seed));
    ("designer", Json.Str t.ss_designer);
    ("commands", Json.Arr (List.rev_map (fun c -> Json.Str c) t.ss_commands));
    ("fingerprint", Json.Str (fingerprint t));
  ]

let meta_json t = Json.Obj (header_fields ~marker:"teamsimd_checkpoint" t)

let checkpoint t ~path =
  let events = Sink.Collect.contents t.ss_buf @ [ closing_event t ] in
  match
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Json.to_string (meta_json t));
        output_char oc '\n';
        List.iter
          (fun ev ->
            output_string oc (Codec.to_line ev);
            output_char oc '\n')
          events;
        (* flush inside the protected region: [with_open_text] closes
           with [close_noerr], which would swallow an ENOSPC surfacing
           only when the channel buffer finally hits the disk *)
        Out_channel.flush oc)
  with
  | () -> Ok (List.length events)
  | exception Sys_error msg -> Error msg

type resume_error =
  | Rs_io of string
  | Rs_corrupt of string
  | Rs_mismatch of string

let read_lines path =
  match In_channel.with_open_text path In_channel.input_lines with
  | lines -> Ok lines
  | exception Sys_error msg -> Error msg

type header = {
  h_scenario : string;
  h_mode : Dpm.mode;
  h_seed : int;
  h_designer : string;
  h_commands : string list;
  h_fingerprint : string;
}

let header_of_json ~marker meta =
  let ( let* ) = Result.bind in
  let* () =
    match meta with
    | Json.Obj _ when Json.member marker meta <> None -> Ok ()
    | _ -> Error (Printf.sprintf "first line is not a %s header" marker)
  in
  let meta_str name =
    match Option.bind (Json.member name meta) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "header lacks field %S" name)
  in
  let* h_scenario = meta_str "scenario" in
  let* mode_s = meta_str "mode" in
  let* h_mode =
    match Dpm.mode_of_string mode_s with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "bad mode %S in header" mode_s)
  in
  let* h_seed =
    match Option.bind (Json.member "seed" meta) Json.to_int with
    | Some n -> Ok n
    | None -> Error "header lacks field \"seed\""
  in
  let* h_designer = meta_str "designer" in
  let* h_fingerprint = meta_str "fingerprint" in
  let* h_commands =
    match Option.bind (Json.member "commands" meta) Json.to_list with
    | None -> Error "header lacks field \"commands\""
    | Some items ->
      let strs = List.filter_map Json.to_str items in
      if List.length strs <> List.length items then
        Error "non-string entry in header command log"
      else Ok strs
  in
  Ok { h_scenario; h_mode; h_seed; h_designer; h_commands; h_fingerprint }

(* Replaying the command log regenerates the designer-model state (RNG,
   tabu memory) and the trace buffer, so the rebuilt session can itself
   be checkpointed or journaled again. It renders no reply: nobody reads
   them, and the fingerprint gate checks the state the effects left. *)
let rebuild ~resolve ~id header =
  match
    create ~resolve ~id ~scenario:header.h_scenario ~mode:header.h_mode
      ~seed:header.h_seed ~designer:header.h_designer
  with
  | Error msg ->
    Error (Rs_corrupt (Printf.sprintf "cannot rebuild session: %s" msg))
  | Ok fresh -> (
    match List.iter (replay fresh) header.h_commands with
    | () ->
      let fp = fingerprint fresh in
      if String.equal fp header.h_fingerprint then
        Ok (fresh, List.length header.h_commands)
      else
        Error
          (Rs_mismatch
             (Printf.sprintf "replayed %s but header recorded %s" fp
                header.h_fingerprint))
    | exception e ->
      Error
        (Rs_corrupt
           (Printf.sprintf "command log replay raised %s"
              (Printexc.to_string e))))

let resume ~resolve ~id ~path =
  let ( let* ) = Result.bind in
  match read_lines path with
  | Error msg -> Error (Rs_io msg)
  | Ok [] -> Error (Rs_corrupt "empty checkpoint file")
  | Ok (meta_line :: event_lines) ->
    let corrupt fmt = Printf.ksprintf (fun m -> Error (Rs_corrupt m)) fmt in
    let* meta =
      match Json.parse meta_line with
      | Ok j -> Ok j
      | Error msg -> corrupt "unparseable checkpoint header: %s" msg
    in
    let* header =
      match header_of_json ~marker:"teamsimd_checkpoint" meta with
      | Ok h -> Ok h
      | Error msg -> corrupt "%s" msg
    in
    let* events =
      match Codec.of_lines ~first:2 event_lines with
      | Ok evs -> Ok evs
      | Error msg -> corrupt "bad trace event at %s" msg
    in
    (* Integrity gate: the recorded trace must replay cleanly through the
       stock driver before we trust the command log. *)
    let raising_resolve name =
      match resolve name with Ok s -> s | Error msg -> invalid_arg msg
    in
    let* () =
      match Replay.run ~resolve:raising_resolve events with
      | report when Replay.converged report -> Ok ()
      | report ->
        corrupt "checkpoint trace does not replay: %s"
          (String.trim (Replay.render report))
      | exception Replay.Replay_error msg ->
        corrupt "checkpoint trace does not replay: %s" msg
    in
    rebuild ~resolve ~id header
