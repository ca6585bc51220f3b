(* Crash-recovery chaos smoke, run from @check:

     spawn daemon (--journal-dir)
       -> in-process chaos proxy between clients and daemon
       -> 8 reconnecting clients drive scripted sessions through the
          proxy (cuts, dribbles, delays, partial writes; one fixed seed)
       -> SIGKILL the daemon mid-run, respawn it on the same journal dir
       -> clients reconnect; the daemon auto-resumes every session from
          its journal (header plus a tail of (client, id)-tagged execs,
          which it re-executes to rebuild the reply cache)
       -> every exec output must be byte-identical to an undisturbed
          in-process Interactive run, and every final fingerprint must
          match the local reference — chaos and the crash must be
          observationally invisible. *)

open Adpm_serve
module Json = Adpm_trace.Json
module Chaos = Adpm_chaos.Chaos

let exe =
  if Array.length Sys.argv < 2 then (
    prerr_endline "usage: chaos_smoke TEAMSIM_EXE";
    exit 2)
  else Sys.argv.(1)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "chaos-smoke FAIL: %s\n" name
  end

let tmpdir =
  let base = Filename.temp_file "teamsimd_chaos" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let daemon_sock = Filename.concat tmpdir "daemon.sock"
let proxy_sock = Filename.concat tmpdir "proxy.sock"
let journal_dir = Filename.concat tmpdir "journal"
let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let spawn () =
  Unix.create_process exe
    [|
      exe; "serve"; "--socket"; daemon_sock; "--checkpoint-dir"; tmpdir;
      "--journal-dir"; journal_dir;
    |]
    devnull devnull Unix.stderr

let wait_for_daemon () =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec loop () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX daemon_sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then (
        prerr_endline "chaos-smoke FAIL: daemon never came up";
        exit 1);
      Unix.sleepf 0.05;
      loop ()
  in
  loop ()

let n_clients = 8
let script =
  [
    "auto"; "step"; "auto"; "suggest"; "auto"; "status"; "step"; "auto";
    "auto"; "status";
  ]

let kill_after = 5 (* rounds before the SIGKILL *)

let designer i = if i mod 2 = 0 then "alice" else "bob"

let () =
  let pid = ref (spawn ()) in
  wait_for_daemon ();
  let envf name d =
    match Option.bind (Sys.getenv_opt name) float_of_string_opt with
    | Some v -> v
    | None -> d
  in
  let plan =
    {
      Chaos.cp_cut = envf "CHAOS_CUT" 0.05;
      cp_dribble = envf "CHAOS_DRIBBLE" 0.05;
      cp_delay = envf "CHAOS_DELAY" 0.10;
      cp_delay_max = 0.01;
      cp_split = envf "CHAOS_SPLIT" 0.3;
    }
  in
  let proxy =
    Chaos.create ~seed:20260808 ~plan ~listen:(Unix.ADDR_UNIX proxy_sock)
      ~upstream:(Unix.ADDR_UNIX daemon_sock)
  in
  let pump () = Chaos.step ~timeout:0. proxy in

  (* undisturbed references: the same scripts through in-process sessions *)
  let references =
    Array.init n_clients (fun i ->
        Adpm_teamsim.Interactive.create ~mode:Adpm_core.Dpm.Adpm ~seed:(i + 1)
          Adpm_scenarios.Simple.scenario ~designer:(designer i))
  in
  let expected_outputs =
    Array.map
      (fun r ->
        List.map
          (fun line ->
            match Adpm_teamsim.Interactive.execute r line with
            | Ok s -> Some s
            | Error _ -> None)
          script)
      references
  in

  let clients =
    Array.init n_clients (fun i ->
        Client.connect_persistent ~retries:12 ~backoff:0.05
          ~seed:(1000 + i)
          ~client:(Printf.sprintf "chaos-c%d" i)
          (Unix.ADDR_UNIX proxy_sock))
  in
  let sids = Array.make n_clients "?" in
  Array.iteri
    (fun i c ->
      let resp =
        Client.rpc ~timeout:60. ~pump c
          (Wire.Open
             {
               scenario = "simple";
               mode = Adpm_core.Dpm.Adpm;
               seed = i + 1;
               designer = designer i;
             })
      in
      check (Printf.sprintf "client %d open" i) resp.Wire.r_ok;
      sids.(i) <- Option.value ~default:"?" (Client.body_str resp "session"))
    clients;

  (* round-robin the scripts; hard-kill + respawn the daemon mid-run *)
  let got_outputs = Array.make n_clients [] in
  List.iteri
    (fun round line ->
      if round = kill_after then begin
        Unix.kill !pid Sys.sigkill;
        ignore (Unix.waitpid [] !pid);
        pid := spawn ();
        wait_for_daemon ()
      end;
      Array.iteri
        (fun i c ->
          (if Sys.getenv_opt "CHAOS_TRACE" <> None then
             Printf.eprintf "round %d client %d\n%!" round i);
          let resp =
            Client.rpc ~timeout:60. ~pump c
              (Wire.Exec { session = sids.(i); line })
          in
          got_outputs.(i) <- Client.body_str resp "output" :: got_outputs.(i))
        clients)
    script;

  let ok_sessions = ref 0 in
  Array.iteri
    (fun i c ->
      let outputs_match = List.rev got_outputs.(i) = expected_outputs.(i) in
      check (Printf.sprintf "client %d outputs byte-identical" i) outputs_match;
      let status =
        Client.rpc ~timeout:60. ~pump c (Wire.Status { session = sids.(i) })
      in
      check (Printf.sprintf "client %d status" i) status.Wire.r_ok;
      let fp_match =
        Client.body_str status "fingerprint"
        = Some (Session.fingerprint_of_interactive references.(i))
      in
      check (Printf.sprintf "client %d fingerprint matches reference" i)
        fp_match;
      if outputs_match && fp_match then incr ok_sessions)
    clients;
  check
    (Printf.sprintf "all %d sessions identical to undisturbed run (got %d)"
       n_clients !ok_sessions)
    (!ok_sessions = n_clients);

  (* at least one client must actually have crossed the crash *)
  let total_reconnects =
    Array.fold_left (fun acc c -> acc + Client.reconnects c) 0 clients
  in
  check "clients reconnected at least once" (total_reconnects > 0);

  (* closing a session deletes its journal *)
  Array.iteri
    (fun i c ->
      let resp =
        Client.rpc ~timeout:60. ~pump c (Wire.Close { session = sids.(i) })
      in
      check (Printf.sprintf "client %d close" i) resp.Wire.r_ok)
    clients;
  let leftover =
    Sys.readdir journal_dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".journal.jsonl")
  in
  check "journals deleted on close" (leftover = []);

  let bye = Client.rpc ~timeout:60. ~pump clients.(0) Wire.Shutdown in
  check "shutdown" bye.Wire.r_ok;
  let _, exit_status = Unix.waitpid [] !pid in
  check "daemon exits cleanly on shutdown" (exit_status = Unix.WEXITED 0);
  Array.iter Client.close clients;
  Chaos.stop proxy;

  let st = Chaos.stats proxy in
  Printf.printf
    "chaos-smoke: %d conns, %d cuts, %d dribbles, %d delays, %d splits, %d \
     reconnects\n"
    st.Chaos.st_conns st.Chaos.st_cuts st.Chaos.st_dribbles st.Chaos.st_delays
    st.Chaos.st_splits total_reconnects;

  (* best-effort cleanup *)
  (try
     Array.iter
       (fun n -> try Sys.remove (Filename.concat journal_dir n) with _ -> ())
       (Sys.readdir journal_dir);
     Unix.rmdir journal_dir
   with _ -> ());
  (try
     Array.iter
       (fun n -> try Sys.remove (Filename.concat tmpdir n) with _ -> ())
       (Sys.readdir tmpdir);
     Unix.rmdir tmpdir
   with _ -> ());
  if !failures > 0 then (
    Printf.eprintf "chaos-smoke: %d failure(s)\n" !failures;
    exit 1)
  else print_endline "chaos-smoke OK"
