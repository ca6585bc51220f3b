(* teamsimd end-to-end smoke, run from @check:

     spawn daemon (with a journal dir) -> hello -> open -> exec ops,
       views and a rejected set -> checkpoint -> SIGKILL the daemon
       -> spawn a fresh daemon
       -> the journaled session is back, fingerprint-exact, its journal
          bytes untouched -> resume
       -> verify the resumed state matches the checkpoint fingerprint
       -> hostile-input probes (garbage, unknown op, bad shape, oversize)
       -> shutdown (clean daemon exit) -> restart once more with no new
          commands: identical fingerprints, unchanged journal bytes
       -> shutdown

   Also replays the same command script through an in-process
   Interactive session and requires byte-identical operation reports:
   the socket must not change semantics. *)

open Adpm_serve
module Json = Adpm_trace.Json

let exe =
  if Array.length Sys.argv < 2 then (
    prerr_endline "usage: daemon_smoke TEAMSIM_EXE";
    exit 2)
  else Sys.argv.(1)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "daemon-smoke FAIL: %s\n" name
  end

let tmpdir =
  let base = Filename.temp_file "teamsimd_smoke" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let sock = Filename.concat tmpdir "teamsimd.sock"
let journal_dir = Filename.concat tmpdir "journal"
let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let spawn () =
  Unix.create_process exe
    [|
      exe; "serve"; "--socket"; sock; "--checkpoint-dir"; tmpdir;
      "--journal-dir"; journal_dir;
    |]
    devnull devnull Unix.stderr

(* Every journal file with its bytes, sorted by name. *)
let journals () =
  Sys.readdir journal_dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".journal.jsonl")
  |> List.sort compare
  |> List.map (fun n ->
         (n, In_channel.with_open_bin (Filename.concat journal_dir n) In_channel.input_all))

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let wait_for_socket () =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec loop () =
    match Client.connect (Unix.ADDR_UNIX sock) with
    | c -> c
    | exception Unix.Unix_error _ ->
      if Unix.gettimeofday () > deadline then (
        prerr_endline "daemon-smoke FAIL: daemon never came up";
        exit 1);
      Unix.sleepf 0.05;
      loop ()
  in
  loop ()

let expect_ok name (resp : Wire.response) =
  check (name ^ " ok")
    (resp.Wire.r_ok
    ||
    (Printf.eprintf "  %s answered: %s\n" name (Json.to_string resp.Wire.r_body);
     false));
  resp

let expect_err name code (resp : Wire.response) =
  check
    (Printf.sprintf "%s yields %s" name code)
    ((not resp.Wire.r_ok) && resp.Wire.r_code = Some code)

(* Views and a [set] the network rejects (xa1 lies far outside its range)
   among the moves: the restart has to rebuild the session through
   both, from the journal and from the checkpoint. *)
let script =
  [
    "auto"; "props"; "auto"; "set xa1 1e308"; "status"; "step"; "conflicts";
    "auto"; "suggest"; "auto";
  ]

let () =
  let pid = spawn () in
  let c = wait_for_socket () in
  let hello = expect_ok "hello" (Client.rpc c Wire.Hello) in
  check "hello names teamsimd" (Client.body_str hello "server" = Some "teamsimd");

  let opened =
    expect_ok "open"
      (Client.rpc c
         (Wire.Open
            {
              scenario = "simple";
              mode = Adpm_core.Dpm.Adpm;
              seed = 3;
              designer = "alice";
            }))
  in
  let sid = Option.value ~default:"?" (Client.body_str opened "session") in

  (* same commands through the in-process Interactive loop: the reports
     and the error messages must match the daemon's byte for byte *)
  let reference =
    Adpm_teamsim.Interactive.create ~mode:Adpm_core.Dpm.Adpm ~seed:3
      Adpm_scenarios.Simple.scenario ~designer:"alice"
  in
  List.iter
    (fun line ->
      let resp = Client.rpc c (Wire.Exec { session = sid; line }) in
      let daemon_out =
        if resp.Wire.r_ok then Ok (Client.body_str resp "output")
        else Error (Client.body_str resp "error")
      in
      let local_out =
        match Adpm_teamsim.Interactive.execute reference line with
        | Ok s -> Ok (Some s)
        | Error m -> Error (Some m)
      in
      check
        (Printf.sprintf "exec %s matches CLI loop" line)
        (daemon_out = local_out))
    script;

  let status = expect_ok "status" (Client.rpc c (Wire.Status { session = sid })) in
  let ops_before = Client.body_int status "operations" in
  let evals_before = Client.body_int status "evaluations" in

  let ckpt =
    expect_ok "checkpoint"
      (Client.rpc c (Wire.Checkpoint { session = sid; path = None }))
  in
  let ckpt_path = Option.value ~default:"?" (Client.body_str ckpt "path") in
  let fingerprint = Client.body_str ckpt "fingerprint" in
  check "checkpoint reports a fingerprint" (fingerprint <> None);

  (* hard-kill the daemon: sessions must survive via the journal and the
     artifact *)
  let journaled = journals () in
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Client.close c;

  let pid2 = spawn () in
  let c2 = wait_for_socket () in
  let recovered =
    expect_ok "status of the recovered session"
      (Client.rpc c2 (Wire.Status { session = sid }))
  in
  check "journal recovery restores the fingerprint"
    (Client.body_str recovered "fingerprint" = fingerprint);
  check "recovery keeps the intact journal's bytes" (journals () = journaled);
  let resumed =
    expect_ok "resume" (Client.rpc c2 (Wire.Resume { path = ckpt_path }))
  in
  let sid2 = Option.value ~default:"?" (Client.body_str resumed "session") in
  check "resume restores the fingerprint"
    (Client.body_str resumed "fingerprint" = fingerprint);
  let status2 =
    expect_ok "status after resume" (Client.rpc c2 (Wire.Status { session = sid2 }))
  in
  check "op count survives the restart"
    (Client.body_int status2 "operations" = ops_before);
  check "evaluation count survives the restart"
    (Client.body_int status2 "evaluations" = evals_before);
  ignore
    (expect_ok "exec after resume"
       (Client.rpc c2 (Wire.Exec { session = sid2; line = "status" })));

  (* hostile input: each probe must yield a structured error frame and
     leave the daemon serving *)
  Client.send c2 (Json.Str "ignored");
  Wire.write_all (Client.fd c2) "this is not json\n";
  (* the Str frame parses but is not an object; the next is not JSON *)
  expect_err "non-object frame" "bad_request" (Client.next_response c2);
  expect_err "garbage frame" "parse" (Client.next_response c2);
  Client.send c2 (Json.Obj [ ("op", Json.Str "frobnicate") ]);
  expect_err "unknown op" "bad_request" (Client.next_response c2);
  Client.send c2 (Json.Obj [ ("op", Json.Str "exec"); ("session", Json.Num 7.) ]);
  expect_err "mistyped field" "bad_request" (Client.next_response c2);
  expect_err "unknown session" "unknown_session"
    (Client.rpc c2 (Wire.Exec { session = "s999"; line = "status" }));

  (* oversize frame on a throwaway connection (it gets dropped) *)
  let c3 = wait_for_socket () in
  Wire.write_all (Client.fd c3) (String.make (Wire.default_max_frame + 2) 'x');
  Wire.write_all (Client.fd c3) "\n";
  expect_err "oversize frame" "oversize" (Client.next_response c3);
  Client.close c3;

  ignore (expect_ok "hello still served" (Client.rpc c2 Wire.Hello));
  let fingerprints c =
    List.map
      (fun s ->
        Client.body_str
          (expect_ok ("status " ^ s) (Client.rpc c (Wire.Status { session = s })))
          "fingerprint")
      [ sid; sid2 ]
  in
  let before = fingerprints c2 in
  let journaled = journals () in
  let shutdown pid c =
    ignore (expect_ok "shutdown" (Client.rpc c Wire.Shutdown));
    let _, exit_status = Unix.waitpid [] pid in
    check "daemon exits cleanly on shutdown" (exit_status = Unix.WEXITED 0);
    Client.close c
  in
  shutdown pid2 c2;

  (* a restart with no new commands: both sessions come back as they
     were, and recovery leaves every intact journal as it found it *)
  let pid3 = spawn () in
  let c4 = wait_for_socket () in
  check "second restart keeps the fingerprints" (fingerprints c4 = before);
  check "second restart keeps the journal bytes" (journals () = journaled);
  shutdown pid3 c4;

  (try rm_rf tmpdir with Sys_error _ | Unix.Unix_error _ -> ());
  if !failures > 0 then (
    Printf.eprintf "daemon-smoke: %d failure(s)\n" !failures;
    exit 1)
  else print_endline "daemon-smoke OK"
