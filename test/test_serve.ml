(* Tests for the teamsimd stack: the JSONL wire layer (framing, request
   codec) and the daemon's request dispatcher, driven in-process through
   [Daemon.handle] / [handle_line] — no live socket needed, so these run
   everywhere the unit suite runs. The socket path itself is covered by
   the daemon-smoke alias (bin/daemon_smoke.ml). *)

open Adpm_core
open Adpm_teamsim
open Adpm_serve
module Json = Adpm_trace.Json

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* {2 Wire.Reader framing} *)

let drain reader =
  let rec go acc =
    match Wire.Reader.next reader with
    | `Frame f -> go (f :: acc)
    | `Pending | `Oversize -> List.rev acc
  in
  go []

let test_reader_framing () =
  let r = Wire.Reader.create () in
  Wire.Reader.feed r "{\"op\":\"he";
  Alcotest.(check (list string)) "partial frame pends" [] (drain r);
  Wire.Reader.feed r "llo\"}\n{\"a\":1}\r\n{\"b\":";
  Alcotest.(check (list string))
    "two complete frames, CR stripped"
    [ "{\"op\":\"hello\"}"; "{\"a\":1}" ]
    (drain r);
  Wire.Reader.feed r "2}\n";
  Alcotest.(check (list string)) "tail completes" [ "{\"b\":2}" ] (drain r);
  (* empty lines are skipped, not delivered as empty frames *)
  Wire.Reader.feed r "\n\n{\"c\":3}\n";
  Alcotest.(check (list string)) "blank lines skipped" [ "{\"c\":3}" ] (drain r)

let test_reader_oversize_sticky () =
  let r = Wire.Reader.create ~max_frame:8 () in
  Wire.Reader.feed r "{\"ok\":1}\n";
  Alcotest.(check (list string)) "frame at bound" [ "{\"ok\":1}" ] (drain r);
  Wire.Reader.feed r (String.make 64 'x');
  Alcotest.(check bool) "oversize detected" true
    (match Wire.Reader.next r with `Oversize -> true | _ -> false);
  (* sticky: even a newline plus a small frame cannot revive the reader *)
  Wire.Reader.feed r "\n{\"a\":1}\n";
  Alcotest.(check bool) "oversize is sticky" true
    (match Wire.Reader.next r with `Oversize -> true | _ -> false)

(* {2 Request codec} *)

let roundtrip req =
  match Wire.request_of_json (Wire.request_to_json req) with
  | Ok r -> r = req
  | Error _ -> false

let test_request_roundtrip () =
  List.iter
    (fun req ->
      Alcotest.(check bool) "request survives encode/decode" true
        (roundtrip req))
    [
      Wire.Hello;
      Wire.Open
        { scenario = "simple"; mode = Dpm.Adpm; seed = 7; designer = "alice" };
      Wire.Open
        {
          scenario = "lna";
          mode = Dpm.Conventional;
          seed = 1;
          designer = "circuit";
        };
      Wire.Exec { session = "s1"; line = "set x 1" };
      Wire.Status { session = "s1" };
      Wire.Checkpoint { session = "s1"; path = Some "/tmp/a.jsonl" };
      Wire.Checkpoint { session = "s1"; path = None };
      Wire.Resume { path = "/tmp/a.jsonl" };
      Wire.Close { session = "s1" };
      Wire.Shutdown;
    ]

let test_request_bad_shapes () =
  let bad j =
    match Wire.request_of_json j with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "non-object rejected" true (bad (Json.Str "hello"));
  Alcotest.(check bool) "missing op rejected" true (bad (Json.Obj []));
  Alcotest.(check bool) "unknown op rejected" true
    (bad (Json.Obj [ ("op", Json.Str "frobnicate") ]));
  Alcotest.(check bool) "open without scenario rejected" true
    (bad (Json.Obj [ ("op", Json.Str "open") ]));
  Alcotest.(check bool) "exec without line rejected" true
    (bad (Json.Obj [ ("op", Json.Str "exec"); ("session", Json.Str "s1") ]));
  Alcotest.(check bool) "bad mode rejected" true
    (bad
       (Json.Obj
          [
            ("op", Json.Str "open");
            ("scenario", Json.Str "simple");
            ("designer", Json.Str "alice");
            ("mode", Json.Str "quantum");
          ]))

(* {2 Dispatcher protocol tests (in-process daemon)} *)

let temp_path suffix =
  let f = Filename.temp_file "adpm-serve" suffix in
  Sys.remove f;
  f

let with_daemon ?(max_sessions = 256) f =
  let sock = temp_path ".sock" in
  let cfg =
    {
      (Daemon.default_config ~addr:(Daemon.Unix_path sock)
         ~scenarios:[ Adpm_scenarios.Simple.scenario ])
      with
      Daemon.dc_max_sessions = max_sessions;
    }
  in
  let d = Daemon.create cfg in
  Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f d)

let field name frame = Json.member name frame

let str_field name frame =
  match Option.bind (field name frame) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string field %S" name

let is_ok frame =
  match Option.bind (field "ok" frame) Json.to_bool with
  | Some b -> b
  | None -> Alcotest.fail "response lacks the ok field"

let expect_ok frame =
  if not (is_ok frame) then
    Alcotest.failf "expected ok frame, got error %s/%s" (str_field "code" frame)
      (str_field "error" frame);
  frame

let expect_err code frame =
  Alcotest.(check bool) "frame is an error" false (is_ok frame);
  Alcotest.(check string) "error code" code (str_field "code" frame);
  frame

let obj fields = Json.Obj fields
let op name rest = obj (("op", Json.Str name) :: rest)

let open_simple ?(designer = "alice") ?(seed = 3) d =
  let frame =
    expect_ok
      (Daemon.handle d
         (op "open"
            [
              ("scenario", Json.Str "simple");
              ("designer", Json.Str designer);
              ("mode", Json.Str "adpm");
              ("seed", Json.Num (float_of_int seed));
            ]))
  in
  str_field "session" frame

let test_hello_and_open () =
  with_daemon (fun d ->
      let hello = expect_ok (Daemon.handle d (op "hello" [])) in
      Alcotest.(check string) "server name" "teamsimd"
        (str_field "server" hello);
      Alcotest.(check bool) "scenario listed" true
        (match Option.bind (field "scenarios" hello) Json.to_list with
        | Some l -> List.exists (fun s -> Json.to_str s = Some "simple") l
        | None -> false);
      let sid = open_simple d in
      Alcotest.(check int) "one session" 1 (Daemon.session_count d);
      let status =
        expect_ok (Daemon.handle d (op "status" [ ("session", Json.Str sid) ]))
      in
      Alcotest.(check string) "status echoes designer" "alice"
        (str_field "designer" status);
      ignore
        (expect_ok (Daemon.handle d (op "close" [ ("session", Json.Str sid) ])));
      Alcotest.(check int) "closed" 0 (Daemon.session_count d))

let test_error_codes () =
  with_daemon ~max_sessions:1 (fun d ->
      ignore
        (expect_err "parse" (Daemon.handle_line d "this is not json"));
      ignore (expect_err "bad_request" (Daemon.handle_line d "\"a string\""));
      ignore
        (expect_err "bad_request"
           (Daemon.handle d (op "frobnicate" [])));
      ignore
        (expect_err "unknown_scenario"
           (Daemon.handle d
              (op "open"
                 [
                   ("scenario", Json.Str "nonesuch");
                   ("designer", Json.Str "alice");
                 ])));
      ignore
        (expect_err "bad_request"
           (Daemon.handle d
              (op "open"
                 [
                   ("scenario", Json.Str "simple");
                   ("designer", Json.Str "nobody");
                 ])));
      ignore
        (expect_err "unknown_session"
           (Daemon.handle d (op "exec"
              [ ("session", Json.Str "s99"); ("line", Json.Str "status") ])));
      let sid = open_simple d in
      ignore
        (expect_err "session_limit"
           (Daemon.handle d
              (op "open"
                 [
                   ("scenario", Json.Str "simple");
                   ("designer", Json.Str "bob");
                 ])));
      (* a command the session rejects is code=command, session intact *)
      ignore
        (expect_err "command"
           (Daemon.handle d
              (op "exec"
                 [ ("session", Json.Str sid); ("line", Json.Str "frobnicate") ])));
      Alcotest.(check int) "session survives command error" 1
        (Daemon.session_count d))

let test_id_echo () =
  with_daemon (fun d ->
      let frame =
        Daemon.handle d (obj [ ("op", Json.Str "hello"); ("id", Json.Num 42.) ])
      in
      Alcotest.(check bool) "numeric id echoed" true
        (field "id" frame = Some (Json.Num 42.));
      let err =
        Daemon.handle_line d "{\"op\":\"nope\",\"id\":\"req-7\"}"
      in
      Alcotest.(check bool) "id echoed on errors too" true
        (field "id" err = Some (Json.Str "req-7")))

(* The daemon must produce byte-identical command outputs to a local
   Interactive session with the same scenario/mode/seed/designer — the
   acceptance bar for "scripted socket session matches the CLI loop". *)
let test_cli_equivalence () =
  let script =
    [ "status"; "auto"; "auto"; "step"; "suggest"; "auto"; "props"; "step" ]
  in
  with_daemon (fun d ->
      let sid = open_simple d ~designer:"alice" ~seed:5 in
      let local =
        Interactive.create ~mode:Dpm.Adpm ~seed:5
          Adpm_scenarios.Simple.scenario ~designer:"alice"
      in
      List.iter
        (fun line ->
          let remote =
            str_field "output"
              (expect_ok
                 (Daemon.handle d
                    (op "exec"
                       [ ("session", Json.Str sid); ("line", Json.Str line) ])))
          in
          let expected =
            match Interactive.execute local line with
            | Ok out -> out
            | Error e -> Alcotest.failf "local session rejected %S: %s" line e
          in
          Alcotest.(check string)
            (Printf.sprintf "output of %S matches CLI" line)
            expected remote)
        script)

(* {2 Checkpoint / resume} *)

let exec_ok d sid line =
  str_field "output"
    (expect_ok
       (Daemon.handle d
          (op "exec" [ ("session", Json.Str sid); ("line", Json.Str line) ])))

let test_checkpoint_resume () =
  let ckpt = temp_path ".jsonl" in
  let script = [ "auto"; "auto"; "step"; "auto" ] in
  let fp_before, commands_after =
    with_daemon (fun d ->
        let sid = open_simple d ~designer:"alice" ~seed:9 in
        List.iter (fun l -> ignore (exec_ok d sid l)) script;
        let frame =
          expect_ok
            (Daemon.handle d
               (op "checkpoint"
                  [ ("session", Json.Str sid); ("path", Json.Str ckpt) ]))
        in
        (str_field "fingerprint" frame, [ "step"; "auto" ]))
  in
  (* the first daemon is gone (stopped); a fresh one resumes from disk *)
  with_daemon (fun d ->
      let frame =
        expect_ok (Daemon.handle d (op "resume" [ ("path", Json.Str ckpt) ]))
      in
      Alcotest.(check string) "fingerprint preserved across restart" fp_before
        (str_field "fingerprint" frame);
      let sid = str_field "session" frame in
      (* the resumed session must behave exactly like an uninterrupted
         one: same designer RNG stream, same outputs *)
      let local =
        Interactive.create ~mode:Dpm.Adpm ~seed:9
          Adpm_scenarios.Simple.scenario ~designer:"alice"
      in
      List.iter
        (fun l -> ignore (Result.get_ok (Interactive.execute local l)))
        script;
      List.iter
        (fun l ->
          let expected = Result.get_ok (Interactive.execute local l) in
          Alcotest.(check string)
            (Printf.sprintf "post-resume %S matches uninterrupted run" l)
            expected (exec_ok d sid l))
        commands_after);
  Sys.remove ckpt

let test_resume_errors () =
  with_daemon (fun d ->
      ignore
        (expect_err "io"
           (Daemon.handle d
              (op "resume" [ ("path", Json.Str "/nonexistent/ckpt.jsonl") ])));
      let bad = temp_path ".jsonl" in
      Out_channel.with_open_text bad (fun oc ->
          output_string oc "{\"not\":\"a checkpoint\"}\n");
      ignore
        (expect_err "bad_checkpoint"
           (Daemon.handle d (op "resume" [ ("path", Json.Str bad) ])));
      Sys.remove bad;
      (* a real checkpoint with a tampered fingerprint must be refused *)
      let ckpt = temp_path ".jsonl" in
      let sid = open_simple d in
      ignore (exec_ok d sid "auto");
      ignore
        (expect_ok
           (Daemon.handle d
              (op "checkpoint"
                 [ ("session", Json.Str sid); ("path", Json.Str ckpt) ])));
      let contents = In_channel.with_open_text ckpt In_channel.input_all in
      let header, rest =
        match String.index_opt contents '\n' with
        | Some i ->
          ( String.sub contents 0 i,
            String.sub contents i (String.length contents - i) )
        | None -> Alcotest.fail "checkpoint has no header line"
      in
      let tampered_header =
        match Json.parse header with
        | Ok (Json.Obj fields) ->
          Json.to_string
            (Json.Obj
               (List.map
                  (function
                    | "fingerprint", _ ->
                      ("fingerprint", Json.Str "ops=999 tampered")
                    | kv -> kv)
                  fields))
        | _ -> Alcotest.fail "checkpoint header does not parse"
      in
      Out_channel.with_open_text ckpt (fun oc ->
          output_string oc (tampered_header ^ rest));
      let frame = Daemon.handle d (op "resume" [ ("path", Json.Str ckpt) ]) in
      Alcotest.(check bool) "tampered checkpoint refused" true
        (match Option.bind (field "code" frame) Json.to_str with
        | Some ("resume_mismatch" | "bad_checkpoint") -> true
        | _ -> false);
      Sys.remove ckpt)

(* {2 Registry-backed resolution} *)

(* With the full registry injected (as the CLI does), a malformed gen:
   spec or an unreadable file: path must come back as a command-level
   [unknown_scenario] error frame — never a [session_failed] and never a
   torn-down daemon. *)
let test_registry_resolution_errors () =
  let sock = temp_path ".sock" in
  let cfg =
    {
      (Daemon.default_config ~addr:(Daemon.Unix_path sock)
         ~scenarios:Adpm_scenarios.Registry.builtin)
      with
      Daemon.dc_resolve = Adpm_scenarios.Registry.resolve_result;
    }
  in
  let d = Daemon.create cfg in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let open_scenario name =
        Daemon.handle d
          (op "open"
             [ ("scenario", Json.Str name); ("designer", Json.Str "leader") ])
      in
      List.iter
        (fun (name, mention) ->
          let frame = expect_err "unknown_scenario" (open_scenario name) in
          Alcotest.(check bool)
            (Printf.sprintf "%S error mentions %S" name mention)
            true
            (contains (str_field "error" frame) mention);
          Alcotest.(check int)
            (Printf.sprintf "%S leaves no session behind" name)
            0 (Daemon.session_count d))
        [
          ("nonesuch", "unknown scenario");
          ("gen:frobs=1", "malformed gen: spec");
          ("file:/nonexistent/no.dddl", "cannot read scenario file");
        ];
      (* and a well-formed gen: reference opens a live session *)
      let frame = expect_ok (open_scenario "gen:n=3,k=1,seed=4") in
      let sid = str_field "session" frame in
      Alcotest.(check bool) "gen: session executes" true
        (contains (exec_ok d sid "status") "PROBLEMS"))

(* {2 Session isolation} *)

(* A session whose engine throws something other than the
   Invalid_argument family must be torn down with a [session_failed]
   frame while the daemon keeps serving everyone else. Stock scenarios
   cannot produce such a throw organically, so we wedge the session's
   trace sink through the test seam. *)
let test_session_failed_teardown () =
  with_daemon (fun d ->
      let victim = open_simple d ~designer:"alice" in
      let bystander = open_simple d ~designer:"bob" in
      (match Daemon.find_session d victim with
      | None -> Alcotest.fail "victim session not found"
      | Some s ->
        let wedged =
          Adpm_trace.Tracer.create
            {
              Adpm_trace.Sink.write = (fun _ -> failwith "sink wedged");
              close = (fun () -> ());
            }
        in
        Dpm.set_tracer (Interactive.dpm (Session.interactive s)) wedged);
      let frame =
        Daemon.handle d
          (op "exec" [ ("session", Json.Str victim); ("line", Json.Str "auto") ])
      in
      ignore (expect_err "session_failed" frame);
      Alcotest.(check bool) "failure message surfaced" true
        (contains (str_field "error" frame) "sink wedged");
      Alcotest.(check int) "victim torn down, bystander alive" 1
        (Daemon.session_count d);
      (* the daemon still serves: the bystander keeps working *)
      Alcotest.(check bool) "bystander still executes" true
        (contains (exec_ok d bystander "auto") "executed"))

let test_many_sessions () =
  with_daemon ~max_sessions:96 (fun d ->
      let designers = [| "alice"; "bob"; "leader" |] in
      let sids =
        List.init 64 (fun i ->
            open_simple d ~designer:designers.(i mod 3) ~seed:(i + 1))
      in
      Alcotest.(check int) "64 concurrent sessions" 64 (Daemon.session_count d);
      List.iter (fun sid -> ignore (exec_ok d sid "auto")) sids;
      List.iter
        (fun sid ->
          ignore
            (expect_ok
               (Daemon.handle d (op "close" [ ("session", Json.Str sid) ]))))
        sids;
      Alcotest.(check int) "all closed" 0 (Daemon.session_count d))

(* {2 Write-ahead journal: WAL, recovery, repair, locking} *)

let temp_dir () =
  let d = Filename.temp_file "adpm-serve" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rm_rf dir =
  let rec rm p =
    if (try Sys.is_directory p with Sys_error _ -> false) then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      try Unix.rmdir p with Unix.Unix_error _ -> ()
    end
    else try Sys.remove p with Sys_error _ -> ()
  in
  rm dir

let journal_config ?(max_ops = 0) ~dir () =
  {
    (Daemon.default_config
       ~addr:(Daemon.Unix_path (Filename.concat dir "d.sock"))
       ~scenarios:[ Adpm_scenarios.Simple.scenario ])
    with
    Daemon.dc_checkpoint_dir = dir;
    dc_journal_dir = Some (Filename.concat dir "journal");
    dc_max_ops = max_ops;
  }

let journal_path ~dir sid =
  Filename.concat (Filename.concat dir "journal") (sid ^ ".journal.jsonl")

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let status_fp d sid =
  str_field "fingerprint"
    (expect_ok (Daemon.handle d (op "status" [ ("session", Json.Str sid) ])))

(* Kill-free auto-resume: a second daemon pointed at the first one's
   journal dir (after [stop], which keeps journal files) must rebuild the
   session, match its fingerprint, and continue byte-identically to an
   uninterrupted run. *)
let test_journal_autoresume () =
  with_dir (fun dir ->
      let before = [ "auto"; "auto"; "step" ] and after = [ "auto"; "step" ] in
      let d1 = Daemon.create (journal_config ~dir ()) in
      let sid = open_simple d1 ~designer:"alice" ~seed:11 in
      List.iter (fun l -> ignore (exec_ok d1 sid l)) before;
      let fp = status_fp d1 sid in
      Daemon.stop d1;
      Alcotest.(check bool) "journal file survives stop" true
        (Sys.file_exists (journal_path ~dir sid));
      let d2 = Daemon.create (journal_config ~dir ()) in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d2)
        (fun () ->
          Alcotest.(check (list (pair string int)))
            "session recovered with its command count"
            [ (sid, List.length before) ]
            (Daemon.recovered_sessions d2);
          Alcotest.(check string) "fingerprint preserved" fp (status_fp d2 sid);
          let local =
            Interactive.create ~mode:Dpm.Adpm ~seed:11
              Adpm_scenarios.Simple.scenario ~designer:"alice"
          in
          List.iter
            (fun l -> ignore (Result.get_ok (Interactive.execute local l)))
            before;
          List.iter
            (fun l ->
              Alcotest.(check string)
                (Printf.sprintf "post-recovery %S matches uninterrupted run" l)
                (Result.get_ok (Interactive.execute local l))
                (exec_ok d2 sid l))
            after;
          (* a fresh open after recovery must not collide with the
             recovered session's id *)
          let sid2 = open_simple d2 ~designer:"bob" in
          Alcotest.(check bool) "session ids stay monotone" true (sid2 <> sid);
          ignore
            (expect_ok
               (Daemon.handle d2 (op "close" [ ("session", Json.Str sid) ])));
          Alcotest.(check bool) "close deletes the journal" false
            (Sys.file_exists (journal_path ~dir sid))))

(* A torn final line (crash mid-append) is a command that never executed:
   recovery drops it and lands exactly on the state before it. *)
let test_journal_torn_tail () =
  with_dir (fun dir ->
      let d1 = Daemon.create (journal_config ~dir ()) in
      let sid = open_simple d1 ~seed:4 in
      ignore (exec_ok d1 sid "auto");
      ignore (exec_ok d1 sid "auto");
      let fp = status_fp d1 sid in
      Daemon.stop d1;
      let p = journal_path ~dir sid in
      let oc = open_out_gen [ Open_append ] 0o644 p in
      output_string oc "{\"cmd\":\"auto\",\"fp\":\"torn mid-wri";
      close_out oc;
      let d2 = Daemon.create (journal_config ~dir ()) in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d2)
        (fun () ->
          Alcotest.(check (list (pair string int)))
            "torn tail dropped, both real commands replayed"
            [ (sid, 2) ]
            (Daemon.recovered_sessions d2);
          Alcotest.(check string) "state is the pre-tear state" fp
            (status_fp d2 sid)))

(* A corrupt header must never wedge startup: the journal is quarantined
   and the daemon comes up clean (and says so via warnings). *)
let test_journal_corrupt_header () =
  with_dir (fun dir ->
      let jdir = Filename.concat dir "journal" in
      Unix.mkdir jdir 0o755;
      let p = Filename.concat jdir "s1.journal.jsonl" in
      Out_channel.with_open_text p (fun oc ->
          output_string oc "this is not a json header\n");
      let d = Daemon.create (journal_config ~dir ()) in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d)
        (fun () ->
          Alcotest.(check int) "daemon starts with no sessions" 0
            (Daemon.session_count d);
          Alcotest.(check bool) "warning emitted" true (Daemon.warnings d <> []);
          Alcotest.(check bool) "journal quarantined" true
            (Sys.file_exists (p ^ ".corrupt"))))

(* An entry whose fingerprint diverges from the replayed state marks the
   end of the trustworthy tail: replay stops there, earlier state stands. *)
let test_journal_fingerprint_gate () =
  with_dir (fun dir ->
      let d1 = Daemon.create (journal_config ~dir ()) in
      let sid = open_simple d1 ~seed:6 in
      ignore (exec_ok d1 sid "auto");
      ignore (exec_ok d1 sid "auto");
      Daemon.stop d1;
      let p = journal_path ~dir sid in
      let lines =
        In_channel.with_open_text p In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      (* tamper the second entry's fp (header :: e1 :: e2) *)
      let tampered =
        List.mapi
          (fun i l ->
            if i = 2 then
              match Json.parse l with
              | Ok (Json.Obj fields) ->
                Json.to_string
                  (Json.Obj
                     (List.map
                        (function
                          | "fp", _ -> ("fp", Json.Str "ops=999 tampered")
                          | kv -> kv)
                        fields))
              | _ -> l
            else l)
          lines
      in
      Out_channel.with_open_text p (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) tampered);
      let d2 = Daemon.create (journal_config ~dir ()) in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d2)
        (fun () ->
          Alcotest.(check (list (pair string int)))
            "replay stops at the divergent entry"
            [ (sid, 1) ]
            (Daemon.recovered_sessions d2);
          Alcotest.(check bool) "divergence reported" true
            (List.exists (fun w -> contains w "diverges") (Daemon.warnings d2))))

(* Two daemons must never share a journal dir: the second refuses at
   create; once the first stops, the dir is free again. A stale lock left
   by a SIGKILLed daemon (dead pid) is broken, not honored. *)
let test_journal_lockfile () =
  with_dir (fun dir ->
      let cfg2 =
        {
          (journal_config ~dir ()) with
          Daemon.dc_addr = Daemon.Unix_path (Filename.concat dir "d2.sock");
        }
      in
      let d1 = Daemon.create (journal_config ~dir ()) in
      (match Daemon.create cfg2 with
      | _ -> Alcotest.fail "second daemon on a held journal dir must refuse"
      | exception Failure msg ->
        Alcotest.(check bool) "refusal names the lock" true
          (contains msg "locked"));
      Daemon.stop d1;
      let d2 = Daemon.create cfg2 in
      Daemon.stop d2;
      (* stale lock: a dead pid in the lockfile must be broken silently *)
      let lock = Filename.concat (Filename.concat dir "journal") "teamsimd.lock" in
      Out_channel.with_open_text lock (fun oc -> output_string oc "999999999\n");
      let d3 = Daemon.create cfg2 in
      Daemon.stop d3)

(* dc_journal_dir pointing at something unusable must refuse at create
   (a daemon that cannot journal must not pretend it can recover). *)
let test_journal_dir_unusable () =
  let file = Filename.temp_file "adpm-serve" ".notadir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let cfg =
        {
          (Daemon.default_config
             ~addr:(Daemon.Unix_path (temp_path ".sock"))
             ~scenarios:[ Adpm_scenarios.Simple.scenario ])
          with
          Daemon.dc_journal_dir = Some file;
        }
      in
      match Daemon.create cfg with
      | d ->
        Daemon.stop d;
        Alcotest.fail "journal dir = regular file must refuse"
      | exception Failure msg ->
        Alcotest.(check bool) "error names the journal dir" true
          (contains msg "journal"))

(* When journaling breaks after startup (dir vanishes out from under the
   daemon), an [open] is refused with [io] rather than running a session
   the daemon cannot recover. *)
let test_journal_write_failure_refuses_open () =
  with_dir (fun dir ->
      let d = Daemon.create (journal_config ~dir ()) in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d)
        (fun () ->
          let jdir = Filename.concat dir "journal" in
          rm_rf jdir;
          Out_channel.with_open_text jdir (fun oc -> output_string oc "x");
          let frame =
            Daemon.handle d
              (op "open"
                 [
                   ("scenario", Json.Str "simple");
                   ("designer", Json.Str "alice");
                 ])
          in
          ignore (expect_err "io" frame);
          Alcotest.(check int) "no half-journaled session left" 0
            (Daemon.session_count d)))

(* Checkpoint io edge cases: unwritable target path, and a full device
   (ENOSPC via /dev/full, when the host provides it). Both must come back
   as [io] error frames with the session alive. *)
let test_checkpoint_io_errors () =
  with_daemon (fun d ->
      let sid = open_simple d in
      ignore (exec_ok d sid "auto");
      let try_path p =
        ignore
          (expect_err "io"
             (Daemon.handle d
                (op "checkpoint"
                   [ ("session", Json.Str sid); ("path", Json.Str p) ])));
        Alcotest.(check int) "session survives the io error" 1
          (Daemon.session_count d)
      in
      try_path "/nonexistent-dir-adpm/ck.jsonl";
      if Sys.file_exists "/dev/full" then try_path "/dev/full")

(* {2 Recovery keeps intact journals and repairs damaged ones} *)

let read_file p = In_channel.with_open_bin p In_channel.input_all

let journal_lines ~dir sid =
  read_file (journal_path ~dir sid)
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* An intact journal is reopened as it is: recovery neither compacts nor
   touches its bytes, and commands appended after it still recover
   fingerprint-exact. *)
let test_journal_intact_kept () =
  with_dir (fun dir ->
      let d1 = Daemon.create (journal_config ~dir ()) in
      let sid = open_simple d1 ~seed:9 in
      List.iter (fun l -> ignore (exec_ok d1 sid l)) [ "auto"; "step"; "auto" ];
      let fp = status_fp d1 sid in
      Daemon.stop d1;
      let bytes = read_file (journal_path ~dir sid) in
      let d2 = Daemon.create (journal_config ~dir ()) in
      let fp2 =
        Fun.protect
          ~finally:(fun () -> Daemon.stop d2)
          (fun () ->
            Alcotest.(check string) "journal bytes unchanged by recovery" bytes
              (read_file (journal_path ~dir sid));
            Alcotest.(check (list string)) "no warnings" [] (Daemon.warnings d2);
            Alcotest.(check string) "fingerprint-exact" fp (status_fp d2 sid);
            ignore (exec_ok d2 sid "auto");
            Alcotest.(check int) "the next command is appended, not compacted"
              (4 + 1)
              (List.length (journal_lines ~dir sid));
            status_fp d2 sid)
      in
      let d3 = Daemon.create (journal_config ~dir ()) in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d3)
        (fun () ->
          Alcotest.(check (list (pair string int)))
            "all four commands recovered" [ (sid, 4) ]
            (Daemon.recovered_sessions d3);
          Alcotest.(check string) "second restart fingerprint-exact" fp2
            (status_fp d3 sid)))

(* Damage a journal, restart (the recovery repairs it: the header and
   the entries before the damage stay, the rest goes),
   run more commands, restart again: the commands executed after the
   repaired recovery must survive. *)
let repaired_survives ~damage ~expect_replayed () =
  with_dir (fun dir ->
      let d1 = Daemon.create (journal_config ~dir ()) in
      let sid = open_simple d1 ~seed:6 in
      ignore (exec_ok d1 sid "auto");
      ignore (exec_ok d1 sid "auto");
      Daemon.stop d1;
      damage (journal_path ~dir sid);
      let d2 = Daemon.create (journal_config ~dir ()) in
      let fp2 =
        Fun.protect
          ~finally:(fun () -> Daemon.stop d2)
          (fun () ->
            Alcotest.(check (list (pair string int)))
              "replay stops at the damage" [ (sid, expect_replayed) ]
              (Daemon.recovered_sessions d2);
            Alcotest.(check int) "repair keeps the header and trusted entries"
              (1 + expect_replayed)
              (List.length (journal_lines ~dir sid));
            ignore (exec_ok d2 sid "step");
            ignore (exec_ok d2 sid "auto");
            status_fp d2 sid)
      in
      let d3 = Daemon.create (journal_config ~dir ()) in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d3)
        (fun () ->
          Alcotest.(check (list (pair string int)))
            "commands after the repair recovered"
            [ (sid, expect_replayed + 2) ]
            (Daemon.recovered_sessions d3);
          Alcotest.(check (list string)) "the repaired journal is clean" []
            (Daemon.warnings d3);
          Alcotest.(check string) "fingerprint-exact after the repair" fp2
            (status_fp d3 sid)))

let append_torn p =
  let oc = open_out_gen [ Open_append ] 0o644 p in
  output_string oc "{\"cmd\":\"auto\",\"fp\":\"torn mid-wri";
  close_out oc

(* Tamper the last entry's fingerprint. *)
let diverge_last p =
  let lines =
    read_file p |> String.split_on_char '\n' |> List.filter (fun l -> l <> "")
  in
  let last = List.length lines - 1 in
  Out_channel.with_open_bin p (fun oc ->
      List.iteri
        (fun i l ->
          let l =
            if i <> last then l
            else
              match Json.parse l with
              | Ok (Json.Obj fields) ->
                Json.to_string
                  (Json.Obj
                     (List.map
                        (function
                          | "fp", _ -> ("fp", Json.Str "ops=999 tampered")
                          | kv -> kv)
                        fields))
              | _ -> l
          in
          output_string oc (l ^ "\n"))
        lines)

let test_torn_repair_survives =
  repaired_survives ~damage:append_torn ~expect_replayed:2

let test_diverged_repair_survives =
  repaired_survives ~damage:diverge_last ~expect_replayed:1

(* Two opens of one [gen:] reference resolve it once and share one
   compiled template; so do their recovered sessions. *)
let test_gen_resolution_shared () =
  with_dir (fun dir ->
      let spec = "gen:n=3,k=2" in
      let calls = ref 0 in
      let config () =
        {
          (journal_config ~dir ()) with
          Daemon.dc_resolve =
            (fun name ->
              if name = spec then incr calls;
              Adpm_scenarios.Registry.resolve_result name);
        }
      in
      let designer =
        List.hd
          (Dpm.designers
             ((Adpm_scenarios.Registry.resolve spec).Scenario.sc_build
                ~mode:Dpm.Adpm))
      in
      let open_gen d seed =
        str_field "session"
          (expect_ok
             (Daemon.handle d
                (op "open"
                   [
                     ("scenario", Json.Str spec);
                     ("designer", Json.Str designer);
                     ("mode", Json.Str "adpm");
                     ("seed", Json.Num (float_of_int seed));
                   ])))
      in
      let shared d a b =
        let sc sid = Session.scenario (Option.get (Daemon.find_session d sid)) in
        Alcotest.(check bool) "one scenario value" true (sc a == sc b);
        Alcotest.(check bool) "one compiled template" true
          (Scenario.compiled (sc a) ~mode:Dpm.Adpm
          == Scenario.compiled (sc b) ~mode:Dpm.Adpm)
      in
      let d1 = Daemon.create (config ()) in
      let a = open_gen d1 1 and b = open_gen d1 2 in
      ignore (exec_ok d1 a "auto");
      Alcotest.(check int) "resolved once for two opens" 1 !calls;
      shared d1 a b;
      Daemon.stop d1;
      calls := 0;
      let d2 = Daemon.create (config ()) in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d2)
        (fun () ->
          Alcotest.(check int) "both sessions recovered" 2
            (List.length (Daemon.recovered_sessions d2));
          Alcotest.(check int) "resolved once for two recoveries" 1 !calls;
          shared d2 a b;
          (* released with its last session: the next open resolves again *)
          List.iter
            (fun sid ->
              ignore
                (expect_ok
                   (Daemon.handle d2 (op "close" [ ("session", Json.Str sid) ]))))
            [ a; b ];
          ignore (open_gen d2 3);
          Alcotest.(check int) "resolved again after the last close" 2 !calls))

(* {2 The sync pool} *)

(* Jobs finish below the watermark; a failed fsync (a pipe cannot be
   fsync'd) is reported once, for its own sequence number only. *)
let test_sync_pool () =
  with_dir (fun dir ->
      let pool = Sync_pool.create () in
      Fun.protect
        ~finally:(fun () -> Sync_pool.stop pool)
        (fun () ->
          let fd =
            Unix.openfile (Filename.concat dir "f") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600
          in
          let r, w = Unix.pipe ~cloexec:true () in
          let seqs =
            List.init 6 (fun i ->
                ignore (Unix.write_substring fd "x\n" 0 2);
                Sync_pool.submit pool
                  (if i = 3 then Sync_pool.File w
                   else if i = 4 then Sync_pool.Dir dir
                   else Sync_pool.File fd))
          in
          Alcotest.(check (list int)) "sequence numbers" [ 1; 2; 3; 4; 5; 6 ] seqs;
          Alcotest.(check int) "submitted" 6 (Sync_pool.submitted pool);
          Sync_pool.wait pool 3;
          Alcotest.(check (list int)) "no failure up to 3" []
            (List.map fst (Sync_pool.take_failures pool ~upto:3));
          Sync_pool.wait pool 6;
          Alcotest.(check (list int)) "the pipe's fsync failed" [ 4 ]
            (List.map fst (Sync_pool.take_failures pool ~upto:6));
          Alcotest.(check (list int)) "reported once" []
            (List.map fst (Sync_pool.take_failures pool ~upto:6));
          Sync_pool.quiesce pool fd;
          List.iter Unix.close [ fd; r; w ]))

(* {2 The serve loop holds replies until their journal lines are durable} *)

let with_request_id n req =
  match Wire.request_to_json req with
  | Json.Obj fields -> Json.Obj (("id", Json.Num (float_of_int n)) :: fields)
  | j -> j

(* Two real connections through [Daemon.step], pipelining bursts of
   exec/props/status over 16 sessions: each connection's replies come
   back in request order and byte-identical to [Daemon.handle] on a twin
   daemon, and every exec's journal line is in the file by the time its
   reply is read. *)
let test_serve_loop_matches_handle () =
  with_dir (fun dir ->
      let twin_dir = Filename.concat dir "twin" in
      Unix.mkdir twin_dir 0o700;
      let d = Daemon.create (journal_config ~dir ()) in
      let twin = Daemon.create (journal_config ~dir:twin_dir ()) in
      Fun.protect
        ~finally:(fun () ->
          Daemon.stop d;
          Daemon.stop twin)
        (fun () ->
          let pump () = ignore (Daemon.step ~timeout:0. d : bool) in
          let sock = Filename.concat dir "d.sock" in
          let conns =
            Array.init 2 (fun _ ->
                let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                Unix.connect fd (Unix.ADDR_UNIX sock);
                (fd, Wire.Reader.create ()))
          in
          let next_id = ref 0 in
          let send c req =
            incr next_id;
            let frame = with_request_id !next_id req in
            Wire.write_all (fst conns.(c)) (Json.to_string frame ^ "\n");
            (!next_id, req, Json.to_string (Daemon.handle twin frame))
          in
          let chunk = Bytes.create 4096 in
          let deadline = Unix.gettimeofday () +. 60. in
          let rec recv c =
            let fd, reader = conns.(c) in
            match Wire.Reader.next reader with
            | `Frame line -> line
            | `Oversize -> Alcotest.fail "oversize reply"
            | `Pending ->
              if Unix.gettimeofday () > deadline then
                Alcotest.fail "no reply within 60 s";
              pump ();
              (match Unix.select [ fd ] [] [] 0.01 with
              | [], _, _ -> ()
              | _ -> (
                match Unix.read fd chunk 0 (Bytes.length chunk) with
                | 0 -> Alcotest.fail "daemon hung up"
                | n -> Wire.Reader.feed reader (Bytes.sub_string chunk 0 n)));
              recv c
          in
          let journaled sid id =
            List.exists
              (fun l ->
                match Json.parse l with
                | Ok j ->
                  Option.bind (Json.member "id" j) Json.to_int = Some id
                  && Json.member "cmd" j <> None
                | Error _ -> false)
              (journal_lines ~dir sid)
          in
          let check_reply c (id, req, expected) =
            let got = recv c in
            Alcotest.(check string)
              (Printf.sprintf "reply %d on connection %d" id c)
              expected got;
            match req with
            | Wire.Exec { session; _ } ->
              Alcotest.(check bool)
                (Printf.sprintf "exec %d journaled before its reply" id)
                true (journaled session id)
            | _ -> ()
          in
          (* sessions s1..s16; session k is served by connection k mod 2 *)
          let sids =
            List.init 16 (fun k ->
                let c = k mod 2 in
                let sent =
                  send c
                    (Wire.Open
                       {
                         scenario = "simple";
                         mode = Dpm.Adpm;
                         seed = 100 + k;
                         designer = (if k mod 4 < 2 then "alice" else "bob");
                       })
                in
                check_reply c sent;
                (c, Printf.sprintf "s%d" (k + 1)))
          in
          for round = 0 to 5 do
            let bursts =
              Array.map
                (fun c ->
                  List.filter_map
                    (fun (c', sid) ->
                      if c' <> c then None
                      else
                        let k = int_of_string (String.sub sid 1 (String.length sid - 1)) in
                        Some
                          (send c
                             (match (round + k) mod 3 with
                             | 0 -> Wire.Exec { session = sid; line = "auto" }
                             | 1 -> Wire.Exec { session = sid; line = "props" }
                             | _ -> Wire.Status { session = sid })))
                    sids)
                [| 0; 1 |]
            in
            Array.iteri (fun c burst -> List.iter (check_reply c) burst) bursts
          done;
          Array.iter (fun (fd, _) -> Unix.close fd) conns))

(* {2 Idempotent requests: the (client, id) reply cache} *)

let with_id ?(client = "c1") idv fields frame_op =
  op frame_op (("id", Json.Str idv) :: ("client", Json.Str client) :: fields)

let command_count d sid =
  match Daemon.find_session d sid with
  | Some s -> Session.command_count s
  | None -> Alcotest.failf "session %s vanished" sid

let test_duplicate_id_answered_from_cache () =
  with_daemon (fun d ->
      let sid = open_simple d in
      let exec_frame =
        with_id "req-1"
          [ ("session", Json.Str sid); ("line", Json.Str "auto") ]
          "exec"
      in
      let first = Daemon.handle d exec_frame in
      ignore (expect_ok first);
      Alcotest.(check int) "executed once" 1 (command_count d sid);
      let second = Daemon.handle d exec_frame in
      Alcotest.(check string) "duplicate answered byte-identically"
        (Json.to_string first) (Json.to_string second);
      Alcotest.(check int) "duplicate did not re-execute" 1
        (command_count d sid);
      (* same id from another client is a different logical request *)
      let other =
        Daemon.handle d
          (with_id ~client:"c2" "req-1"
             [ ("session", Json.Str sid); ("line", Json.Str "auto") ]
             "exec")
      in
      ignore (expect_ok other);
      Alcotest.(check int) "distinct client executes" 2 (command_count d sid))

(* The cache is rebuilt from the journal: a resend of a pre-crash request
   is answered without double-execution even across a restart. With
   [Some damage], one restart first repairs the damaged journal; the repair
   keeps the header's reply-cache tags and each kept entry's (client,
   id), so the next restart still answers from the cache. *)
let reply_cache_survives ~damage ~replayed () =
  with_dir (fun dir ->
      let open_frame =
        with_id "open-1"
          [
            ("scenario", Json.Str "simple");
            ("designer", Json.Str "alice");
            ("mode", Json.Str "adpm");
            ("seed", Json.Num 3.);
          ]
          "open"
      in
      let d1 = Daemon.create (journal_config ~dir ()) in
      let opened = expect_ok (Daemon.handle d1 open_frame) in
      let sid = str_field "session" opened in
      let exec_frame n =
        with_id (Printf.sprintf "exec-%d" n)
          [ ("session", Json.Str sid); ("line", Json.Str "auto") ]
          "exec"
      in
      let first = Daemon.handle d1 (exec_frame 1) in
      ignore (expect_ok first);
      ignore (expect_ok (Daemon.handle d1 (exec_frame 2)));
      Daemon.stop d1;
      Option.iter
        (fun damage ->
          damage (journal_path ~dir sid);
          Daemon.stop (Daemon.create (journal_config ~dir ())))
        damage;
      let d2 = Daemon.create (journal_config ~dir ()) in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d2)
        (fun () ->
          Alcotest.(check (list string)) "the journal is clean" []
            (Daemon.warnings d2);
          Alcotest.(check int) "tail replayed" replayed (command_count d2 sid);
          Alcotest.(check string)
            "pre-crash exec resend answered byte-identically from the \
             rebuilt cache"
            (Json.to_string first)
            (Json.to_string (Daemon.handle d2 (exec_frame 1)));
          Alcotest.(check int) "resend did not re-execute" replayed
            (command_count d2 sid);
          (* the open that created the session is cached too *)
          Alcotest.(check string) "pre-crash open resend answered"
            (Json.to_string opened)
            (Json.to_string (Daemon.handle d2 open_frame));
          Alcotest.(check int) "open resend made no second session" 1
            (Daemon.session_count d2)))

(* {2 Overload protection} *)

let test_op_budget_overloaded () =
  with_dir (fun dir ->
      let d = Daemon.create (journal_config ~max_ops:2 ~dir ()) in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d)
        (fun () ->
          let sid = open_simple d in
          ignore (exec_ok d sid "auto");
          ignore (exec_ok d sid "auto");
          let frame =
            expect_err "overloaded"
              (Daemon.handle d
                 (op "exec"
                    [ ("session", Json.Str sid); ("line", Json.Str "auto") ]))
          in
          Alcotest.(check bool) "error names the budget" true
            (contains (str_field "error" frame) "budget");
          Alcotest.(check int) "budget refusal executes nothing" 2
            (command_count d sid);
          (* status still served: overload refuses work, not the session *)
          ignore (status_fp d sid)))

(* Admission control over a live socket: past dc_max_conns the daemon
   answers one no-id [overloaded] frame and closes — never accepts work
   it cannot serve. *)
let test_conn_limit_overloaded () =
  let sock = temp_path ".sock" in
  let cfg =
    {
      (Daemon.default_config ~addr:(Daemon.Unix_path sock)
         ~scenarios:[ Adpm_scenarios.Simple.scenario ])
      with
      Daemon.dc_max_conns = 1;
    }
  in
  let d = Daemon.create cfg in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let pump () = ignore (Daemon.step ~timeout:0. d : bool) in
      let c1 = Client.connect (Unix.ADDR_UNIX sock) in
      pump ();
      let hello = Client.rpc ~timeout:10. ~pump c1 Wire.Hello in
      Alcotest.(check bool) "first connection served" true hello.Wire.r_ok;
      let c2 = Client.connect (Unix.ADDR_UNIX sock) in
      let refused = Client.rpc ~timeout:10. ~pump c2 Wire.Hello in
      Alcotest.(check bool) "second connection refused" false refused.Wire.r_ok;
      Alcotest.(check (option string)) "refusal code is overloaded"
        (Some "overloaded")
        (Option.bind (Json.member "code" refused.Wire.r_body) Json.to_str);
      Client.close c2;
      (* the refused connection freed its slot only after close; the
         first client keeps working throughout *)
      let again = Client.rpc ~timeout:10. ~pump c1 Wire.Hello in
      Alcotest.(check bool) "first connection unaffected" true again.Wire.r_ok;
      Client.close c1)

(* Slow-client defense: a peer that stops reading while responses pile up
   past dc_max_write_buf is disconnected; the daemon keeps serving. *)
let test_slow_client_disconnected () =
  let sock = temp_path ".sock" in
  let cfg =
    {
      (Daemon.default_config ~addr:(Daemon.Unix_path sock)
         ~scenarios:[ Adpm_scenarios.Simple.scenario ])
      with
      Daemon.dc_max_write_buf = 1024;
      dc_sndbuf = Some 4096;
    }
  in
  let d = Daemon.create cfg in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let pump () = ignore (Daemon.step ~timeout:0. d : bool) in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      (* flood requests without ever reading a response *)
      let req = Json.to_string (Wire.request_to_json Wire.Hello) ^ "\n" in
      (try
         for _ = 1 to 2000 do
           ignore (Unix.write_substring fd req 0 (String.length req));
           pump ()
         done
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      for _ = 1 to 50 do
        pump ()
      done;
      (* the daemon must have hung up on us: draining the socket ends in
         EOF, not an endless stream *)
      let buf = Bytes.create 65536 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> true
        | _ ->
          pump ();
          drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
      in
      Alcotest.(check bool) "slow client disconnected" true (drain ());
      Unix.close fd;
      (* a well-behaved client is still served *)
      let c = Client.connect (Unix.ADDR_UNIX sock) in
      pump ();
      let hello = Client.rpc ~timeout:10. ~pump c Wire.Hello in
      Alcotest.(check bool) "daemon still serves after the disconnect" true
        hello.Wire.r_ok;
      Client.close c)

(* {2 Signal robustness (EINTR storm)} *)

(* A SIGALRM storm (every 2 ms) while a scripted session runs over the
   socket: every select/read/write on both sides keeps getting
   interrupted, and nothing may fail or hang. *)
let test_eintr_storm () =
  let sock = temp_path ".sock" in
  let cfg =
    Daemon.default_config ~addr:(Daemon.Unix_path sock)
      ~scenarios:[ Adpm_scenarios.Simple.scenario ]
  in
  let d = Daemon.create cfg in
  let old_handler =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ()))
  in
  let stop_storm () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.; it_value = 0. }
        : Unix.interval_timer_status);
    Sys.set_signal Sys.sigalrm old_handler
  in
  Fun.protect
    ~finally:(fun () ->
      stop_storm ();
      Daemon.stop d)
    (fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.002; it_value = 0.002 }
          : Unix.interval_timer_status);
      let pump () = ignore (Daemon.step ~timeout:0. d : bool) in
      let c = Client.connect (Unix.ADDR_UNIX sock) in
      pump ();
      let rpc req = Client.rpc ~timeout:30. ~pump c req in
      let resp =
        rpc
          (Wire.Open
             { scenario = "simple"; mode = Dpm.Adpm; seed = 2; designer = "bob" })
      in
      Alcotest.(check bool) "open under signal storm" true resp.Wire.r_ok;
      let sid = Option.get (Client.body_str resp "session") in
      for _ = 1 to 20 do
        let r = rpc (Wire.Exec { session = sid; line = "auto" }) in
        Alcotest.(check bool) "exec under signal storm" true r.Wire.r_ok
      done;
      Client.close c)

(* {2 Rebuilding a session without its replies}

   Recovery and resume rebuild a session through [Session.replay], which
   makes every command's effects but renders no reply. A session rebuilt
   that way must be indistinguishable from one driven through [exec]. *)

let builtin_scenarios =
  Adpm_scenarios.[ Simple.scenario; Lna.scenario; Sensor.scenario; Receiver.scenario ]

(* The numeric outputs of [designer]'s problems, with their initial
   ranges (a fresh build: the compiled template is never touched). *)
let numeric_outputs sc ~mode ~designer =
  let dpm = sc.Scenario.sc_build ~mode in
  let net = Dpm.network dpm in
  List.concat_map Problem.properties (Dpm.problems_owned_by dpm designer)
  |> List.sort_uniq compare
  |> List.filter_map (fun prop ->
         let dom = Adpm_csp.Network.initial_domain net prop in
         match Adpm_interval.Domain.hull dom with
         | Some iv when Adpm_interval.Interval.is_bounded iv ->
           Some
             (prop, Adpm_interval.Interval.lo iv, Adpm_interval.Interval.hi iv)
         | _ -> None)

(* A [set] the network rejects: the value lies outside the range. *)
let rejected_set sc ~mode ~designer =
  match numeric_outputs sc ~mode ~designer with
  | (prop, _, _) :: _ -> Printf.sprintf "set %s 1e308" prop
  | [] -> "set nothing 1e308"

let resolve_builtin = Adpm_scenarios.Registry.resolve_result

let create_session ~id sc ~mode ~seed ~designer =
  match
    Session.create ~resolve:resolve_builtin ~id ~scenario:sc.Scenario.sc_name
      ~mode ~seed ~designer
  with
  | Ok s -> s
  | Error msg -> Alcotest.failf "cannot open %s: %s" sc.Scenario.sc_name msg

let resume_error_message = function
  | Session.Rs_io m | Session.Rs_corrupt m | Session.Rs_mismatch m -> m

(* A [set] the network rejects must leave no [Op_submitted] in the
   session's trace: a checkpoint taken after it resumes, fingerprint-exact,
   instead of failing the trace replay. *)
let test_rejected_set_checkpoint_resumes () =
  with_dir (fun dir ->
      let sc = Adpm_scenarios.Lna.scenario in
      let s = create_session ~id:"s1" sc ~mode:Dpm.Adpm ~seed:1 ~designer:"circuit" in
      (match Session.exec s "set Diff-pair-W 1e308" with
      | Error msg ->
        Alcotest.(check bool) "the network names the range" true
          (contains msg "outside")
      | Ok out -> Alcotest.failf "an out-of-range set was applied: %s" out);
      ignore (Session.exec s "auto");
      ignore (Session.exec s "step");
      let path = Filename.concat dir "s1.checkpoint.jsonl" in
      (match Session.checkpoint s ~path with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "checkpoint: %s" msg);
      match Session.resume ~resolve:resolve_builtin ~id:"s2" ~path with
      | Ok (resumed, replayed) ->
        Alcotest.(check int) "every command replayed" 3 replayed;
        Alcotest.(check string) "fingerprint-exact" (Session.fingerprint s)
          (Session.fingerprint resumed)
      | Error err -> Alcotest.failf "resume: %s" (resume_error_message err))

(* One random command log: the session it runs in and its lines, built
   from small integers so QCheck can shrink them. *)
type log_case = {
  lc_scenario : Scenario.t;
  lc_mode : Dpm.mode;
  lc_seed : int;
  lc_designer : string;
  lc_lines : string list;
}

let print_case c =
  Printf.sprintf "%s %s seed %d as %s: [%s]" c.lc_scenario.Scenario.sc_name
    (Dpm.mode_to_string c.lc_mode) c.lc_seed c.lc_designer
    (String.concat "; " (List.map (Printf.sprintf "%S") c.lc_lines))

let case_of (sc_i, adpm, seed, designer_i, forms) =
  let sc = List.nth builtin_scenarios sc_i in
  let mode = if adpm then Dpm.Adpm else Dpm.Conventional in
  let dpm = sc.Scenario.sc_build ~mode in
  let team = Dpm.designers dpm in
  let designer = List.nth team (designer_i mod List.length team) in
  let objects = List.map (fun o -> o.Design_object.o_name) (Dpm.objects dpm) in
  let outputs = numeric_outputs sc ~mode ~designer in
  let nth l k = List.nth l (k mod List.length l) in
  let line (form, k) =
    match form with
    | 0 -> "auto"
    | 1 -> "step"
    | 2 -> "suggest"
    | 3 -> "verify"
    | 4 -> "props"
    | 5 -> "status"
    | 6 -> "conflicts"
    | 7 -> "browse " ^ nth objects k
    | 8 -> "browse no-such-object"
    | 9 when outputs <> [] ->
      (* a value inside the initial range *)
      let prop, lo, hi = nth outputs k in
      Printf.sprintf "set %s %.17g" prop (lo +. (hi -. lo) *. float_of_int (k mod 10) /. 9.)
    | 9 | 10 -> rejected_set sc ~mode ~designer
    | 11 -> Printf.sprintf "set %s not-a-number" (match outputs with (p, _, _) :: _ -> p | [] -> "x")
    | 12 -> "frobnicate"
    | 13 -> "   "
    | _ -> "help"
  in
  { lc_scenario = sc; lc_mode = mode; lc_seed = seed; lc_designer = designer;
    lc_lines = List.map line forms }

let arb_log_case =
  let open QCheck.Gen in
  let gen =
    map case_of
      (tup5 (int_bound 3) bool (int_range 1 50) (int_bound 7)
         (list_size (int_range 1 16)
            (pair
               (* mostly moves, so the views and sets land on varied states *)
               (frequency [ (4, return 0); (4, return 1); (6, int_bound 14) ])
               (int_bound 20))))
  in
  QCheck.make ~print:print_case gen

(* The checkpoint file holds the header (command log, fingerprint) and
   every collected trace event as its [Codec] line. *)
let checkpoint_bytes ~dir s name =
  let path = Filename.concat dir name in
  match Session.checkpoint s ~path with
  | Ok _ -> read_file path
  | Error msg -> Alcotest.failf "checkpoint: %s" msg

let replay_matches_exec =
  QCheck.Test.make ~name:"replay = exec on random command logs" ~count:100
    arb_log_case (fun c ->
      let fresh id =
        create_session ~id c.lc_scenario ~mode:c.lc_mode ~seed:c.lc_seed
          ~designer:c.lc_designer
      in
      let live = fresh "s1" and rebuilt = fresh "s2" in
      let prefixes f s = List.map (fun l -> f s l; Session.fingerprint s) c.lc_lines in
      let live_fps = prefixes (fun s l -> ignore (Session.exec s l)) live in
      let rebuilt_fps = prefixes Session.replay rebuilt in
      if live_fps <> rebuilt_fps then
        QCheck.Test.fail_reportf "fingerprints differ:\n%s\n%s"
          (String.concat "\n" live_fps) (String.concat "\n" rebuilt_fps);
      with_dir (fun dir ->
          if checkpoint_bytes ~dir live "a" <> checkpoint_bytes ~dir rebuilt "b" then
            QCheck.Test.fail_report "collected trace lines differ";
          (* the live trace stays replayable, even after a rejected set *)
          match
            Session.resume ~resolve:resolve_builtin ~id:"s3"
              ~path:(Filename.concat dir "a")
          with
          | Ok (resumed, _) when Session.fingerprint resumed = Session.fingerprint live -> ()
          | Ok _ -> QCheck.Test.fail_report "resume lands on another fingerprint"
          | Error err -> QCheck.Test.fail_reportf "resume: %s" (resume_error_message err));
      List.for_all
        (fun l -> Session.exec live l = Session.exec rebuilt l)
        [ "auto"; "suggest" ])

(* A journal tail of tagged and untagged entries, views among both.
   Recovery executes the tagged ones (their replies are re-cached) and
   only replays the rest; either way the state is exact. *)
let test_mixed_tail_recovery () =
  with_dir (fun dir ->
      let sc = Adpm_scenarios.Simple.scenario in
      let rejected = rejected_set sc ~mode:Dpm.Adpm ~designer:"alice" in
      let script =
        [
          (Some "r1", "props"); (None, "auto"); (None, "status");
          (Some "r2", "auto"); (None, rejected); (Some "r3", "conflicts");
          (None, "props"); (Some "r4", "step"); (None, "suggest");
          (Some "r5", rejected); (None, "conflicts"); (Some "r6", "auto");
          (None, "browse no-such-object"); (None, "step");
        ]
      in
      let exec_frame sid (tag, line) =
        let fields = [ ("session", Json.Str sid); ("line", Json.Str line) ] in
        match tag with
        | Some idv -> with_id idv fields "exec"
        | None -> op "exec" fields
      in
      let d1 = Daemon.create (journal_config ~dir ()) in
      let sid = open_simple d1 ~seed:5 in
      let tagged =
        List.filter_map
          (fun ((tag, _) as entry) ->
            let reply = Daemon.handle d1 (exec_frame sid entry) in
            Option.map (fun _ -> (exec_frame sid entry, Json.to_string reply)) tag)
          script
      in
      let fp = status_fp d1 sid in
      Daemon.stop d1;
      let bytes = read_file (journal_path ~dir sid) in
      let d2 = Daemon.create (journal_config ~dir ()) in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d2)
        (fun () ->
          Alcotest.(check (list string)) "every entry fingerprint passed" []
            (Daemon.warnings d2);
          Alcotest.(check (list (pair string int)))
            "every command recovered" [ (sid, List.length script) ]
            (Daemon.recovered_sessions d2);
          Alcotest.(check string) "fingerprint-exact" fp (status_fp d2 sid);
          Alcotest.(check string) "journal bytes unchanged" bytes
            (read_file (journal_path ~dir sid));
          List.iter
            (fun (frame, reply) ->
              Alcotest.(check string) "tagged resend answered from the cache"
                reply (Json.to_string (Daemon.handle d2 frame)))
            tagged;
          Alcotest.(check int) "no resend re-executed" (List.length script)
            (command_count d2 sid);
          (* and the session goes on as an uninterrupted one would *)
          let local =
            Interactive.create ~mode:Dpm.Adpm ~seed:5 sc ~designer:"alice"
          in
          List.iter (fun (_, l) -> ignore (Interactive.execute local l)) script;
          List.iter
            (fun l ->
              Alcotest.(check string)
                (Printf.sprintf "post-recovery %S" l)
                (Result.get_ok (Interactive.execute local l))
                (exec_ok d2 sid l))
            [ "auto"; "suggest" ]))

let suite =
  [
    ("reader framing", `Quick, test_reader_framing);
    ("reader oversize is sticky", `Quick, test_reader_oversize_sticky);
    ("request codec round-trip", `Quick, test_request_roundtrip);
    ("request codec rejects bad shapes", `Quick, test_request_bad_shapes);
    ("hello, open, status, close", `Quick, test_hello_and_open);
    ("protocol error codes", `Quick, test_error_codes);
    ("request ids echoed", `Quick, test_id_echo);
    ("daemon output equals CLI output", `Quick, test_cli_equivalence);
    ("checkpoint survives daemon restart", `Quick, test_checkpoint_resume);
    ("resume rejects bad artifacts", `Quick, test_resume_errors);
    ( "registry errors are command-level frames",
      `Quick,
      test_registry_resolution_errors );
    ("throwing session is isolated", `Quick, test_session_failed_teardown);
    ("64 sessions multiplex", `Quick, test_many_sessions);
    ("journal auto-resume", `Quick, test_journal_autoresume);
    ("journal drops a torn tail", `Quick, test_journal_torn_tail);
    ("corrupt journal header quarantined", `Quick, test_journal_corrupt_header);
    ("journal fingerprint gate", `Quick, test_journal_fingerprint_gate);
    ("intact journal kept as it is", `Quick, test_journal_intact_kept);
    ( "torn journal repaired, later commands survive",
      `Quick,
      test_torn_repair_survives );
    ( "diverged journal repaired, later commands survive",
      `Quick,
      test_diverged_repair_survives );
    ("gen: resolution shared by sessions", `Quick, test_gen_resolution_shared);
    ("sync pool watermark and failures", `Quick, test_sync_pool);
    ( "serve loop replies match handle, journaled first",
      `Quick,
      test_serve_loop_matches_handle );
    ("journal dir lockfile", `Quick, test_journal_lockfile);
    ("unusable journal dir refused", `Quick, test_journal_dir_unusable);
    ( "journal write failure refuses open",
      `Quick,
      test_journal_write_failure_refuses_open );
    ("checkpoint io errors", `Quick, test_checkpoint_io_errors);
    ( "duplicate request id answered from cache",
      `Quick,
      test_duplicate_id_answered_from_cache );
    ( "reply cache survives restart",
      `Quick,
      reply_cache_survives ~damage:None ~replayed:2 );
    ( "torn journal repair keeps the reply cache",
      `Quick,
      reply_cache_survives ~damage:(Some append_torn) ~replayed:2 );
    ( "diverged journal repair keeps the reply cache",
      `Quick,
      reply_cache_survives ~damage:(Some diverge_last) ~replayed:1 );
    ( "rejected set leaves the checkpoint resumable",
      `Quick,
      test_rejected_set_checkpoint_resumes );
    QCheck_alcotest.to_alcotest replay_matches_exec;
    ("mixed journal tail recovers exactly", `Quick, test_mixed_tail_recovery);
    ("op budget refused as overloaded", `Quick, test_op_budget_overloaded);
    ("connection limit refused as overloaded", `Quick, test_conn_limit_overloaded);
    ("slow client disconnected", `Quick, test_slow_client_disconnected);
    ("EINTR signal storm", `Quick, test_eintr_storm);
  ]

(* {2 Wire robustness under forks and signals}

   These fork, so they run in their own Alcotest suite registered
   {e before} the "domains" suite in test_main.ml: the OCaml 5 runtime
   forbids Unix.fork once a domain has been spawned. *)

(* A frame far larger than the socket's send buffer, read by a
   deliberately slow peer: [Wire.send_line] must keep writing through
   short writes until every byte is out. *)
let test_short_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int a Unix.SO_SNDBUF 4096;
  let payload = Json.Obj [ ("blob", Json.Str (String.make 300_000 'x')) ] in
  let expected = String.length (Json.to_string payload) + 1 in
  match Unix.fork () with
  | 0 ->
    (* child: dribble-read the frame and exit 0 iff the byte count is
       exactly one whole frame *)
    Unix.close a;
    let buf = Bytes.create 777 in
    let total = ref 0 in
    let rec go () =
      ignore (Unix.select [ b ] [] [] 5.);
      match Unix.read b buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n ->
        total := !total + n;
        ignore (Unix.select [] [] [] 0.001);
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ();
    Unix._exit (if !total = expected then 0 else 1)
  | pid ->
    Unix.close b;
    Wire.send_line a payload;
    Unix.close a;
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "slow reader received the frame whole" true
      (status = Unix.WEXITED 0)

(* The same large write under a SIGALRM storm: write(2) keeps returning
   EINTR and [send_line] must retry, not drop bytes. *)
let test_write_eintr () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int a Unix.SO_SNDBUF 4096;
  let payload = Json.Obj [ ("blob", Json.Str (String.make 200_000 'y')) ] in
  let expected = String.length (Json.to_string payload) + 1 in
  match Unix.fork () with
  | 0 ->
    Unix.close a;
    let buf = Bytes.create 4096 in
    let total = ref 0 in
    let rec go () =
      match Unix.read b buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n ->
        total := !total + n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ();
    Unix._exit (if !total = expected then 0 else 1)
  | pid ->
    Unix.close b;
    let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.001; it_value = 0.001 }
        : Unix.interval_timer_status);
    Fun.protect
      ~finally:(fun () ->
        ignore
          (Unix.setitimer Unix.ITIMER_REAL
             { Unix.it_interval = 0.; it_value = 0. }
            : Unix.interval_timer_status);
        Sys.set_signal Sys.sigalrm old)
      (fun () -> Wire.send_line a payload);
    Unix.close a;
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "frame complete despite EINTR storm" true
      (status = Unix.WEXITED 0)

(* Writing to a peer that already hung up must raise EPIPE as a normal
   Unix_error — never kill the process with SIGPIPE. *)
let test_epipe_not_sigpipe () =
  Wire.ignore_sigpipe ();
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  let payload = Json.Obj [ ("blob", Json.Str (String.make 100_000 'z')) ] in
  let got_epipe =
    match
      (* one frame may be swallowed by the socket buffer; keep writing *)
      for _ = 1 to 64 do
        Wire.send_line a payload
      done
    with
    | () -> false
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> true
  in
  Unix.close a;
  Alcotest.(check bool) "EPIPE raised, process alive" true got_epipe

let wire_suite =
  [
    ("send_line survives short writes", `Quick, test_short_writes);
    ("send_line survives EINTR", `Quick, test_write_eintr);
    ("EPIPE instead of SIGPIPE", `Quick, test_epipe_not_sigpipe);
  ]
