(* teamsimd-recovery: repeated daemon restarts over a journal directory.

   Set-up builds a fixture through an in-process [Daemon.handle]: 32
   sessions (alternating sensor and receiver, ADPM), 20 journaled exec
   commands each. Each item copies the fixture's journals into a fresh
   directory, spawns [teamsim serve --journal-dir] on it, and is timed
   from the spawn until [hello] is answered: the daemon scans the
   journals, replays every session fingerprint-gated, and compacts each
   journal before it serves. The restarted daemon must report every
   session, each with the fingerprint it had when the fixture was
   built. *)

open Adpm_core
open Adpm_serve
open Common

let commands = [| "auto"; "props"; "step"; "auto"; "props" |]
let marker = "teamsimd_journal"

type fixture = {
  dir : string;
  files : string list;
  fingerprints : (string * string) list;  (* session id, fingerprint *)
}

let build_fixture ctx =
  let dir = fresh_dir ctx "fixture" in
  let d = in_process_daemon ctx ~name:"fixture" ~journal_dir:dir in
  let handle req =
    match Wire.response_of_json (Daemon.handle d (Wire.request_to_json req)) with
    | Ok r when r.Wire.r_ok -> r
    | Ok r -> failwith ("fixture: " ^ Json.to_string r.Wire.r_body)
    | Error m -> failwith m
  in
  let sessions = scaled ctx ~min:2 32 and per_session = scaled ctx ~min:2 20 in
  let sids =
    List.init sessions (fun i ->
        let scenario = if i mod 2 = 0 then "sensor" else "receiver" in
        let sc = Adpm_scenarios.Registry.resolve scenario in
        let team = Dpm.designers (sc.Adpm_teamsim.Scenario.sc_build ~mode:Dpm.Adpm) in
        let r =
          handle
            (Wire.Open
               {
                 scenario;
                 mode = Dpm.Adpm;
                 seed = derive ctx.seed 2000 i;
                 designer = List.nth team (i / 2 mod List.length team);
               })
        in
        Option.get (body_str r "session"))
  in
  for k = 0 to per_session - 1 do
    List.iter
      (fun sid ->
        ignore
          (handle
             (Wire.Exec { session = sid; line = commands.(k mod Array.length commands) })
            : Wire.response))
      sids
  done;
  let fingerprints =
    List.map
      (fun sid -> (sid, Option.get (body_str (handle (Wire.Status { session = sid })) "fingerprint")))
      sids
  in
  Daemon.stop d;
  let files =
    List.filter
      (fun n -> Filename.check_suffix n ".journal.jsonl")
      (Array.to_list (Sys.readdir dir))
  in
  { dir; files; fingerprints }

let copy_fixture ctx fx name =
  let dir = fresh_dir ctx name in
  List.iter (fun f -> copy_file (Filename.concat fx.dir f) (Filename.concat dir f)) fx.files;
  dir

(* One restart: the spawn-to-hello time, the daemon's peak RSS, and
   whether it recovered every session exactly. *)
let restart ctx fx =
  let journal_dir = copy_fixture ctx fx "restart" in
  let d, conns, hellos, ns = start_daemon ctx ~name:"restart" ~journal_dir ~conns:1 in
  let c = List.hd conns in
  let recovered = Option.value ~default:(-1) (body_int (List.hd hellos) "sessions") in
  let ok =
    recovered = List.length fx.fingerprints
    && List.for_all
         (fun (sid, fp) -> body_str (rpc c (Wire.Status { session = sid })) "fingerprint" = Some fp)
         fx.fingerprints
  in
  if not ok then
    complain "restart recovered %d of %d sessions or drifted:\n%s" recovered
      (List.length fx.fingerprints) (daemon_log d);
  let peak = vm_hwm_mb (string_of_int d.pid) in
  let clean = shutdown_daemon d c in
  if not clean then complain "daemon did not exit cleanly";
  (ns, peak, ok && clean)

let fixture_json fx =
  Json.Obj
    [
      ("sessions", Json.Num (float_of_int (List.length fx.fingerprints)));
      ( "fingerprints",
        Json.Str
          (Digest.to_hex
             (Digest.string (String.concat "\n" (List.map snd fx.fingerprints)))) );
    ]

type restarts = {
  lat : float array;  (* spawn to [hello], ns *)
  scaled_lat : float array;  (* the same, scaled *)
  busy : float array;  (* each whole restart cycle, scaled ns *)
  n : int;
  failed : int;
  peak : float;
}

(* Restarts until [budget] ns have passed, a probe after each. *)
let restarts ctx fx ~budget =
  let lat = Vec.create 0. and scaled_lat = Vec.create 0. and busy = Vec.create 0. in
  let start = now_ns () in
  let pace = Pace.start () in
  let rec go failed peak =
    if Vec.length lat > 0 && now_ns () - start >= budget then
      {
        lat = Vec.to_array lat;
        scaled_lat = Vec.to_array scaled_lat;
        busy = Vec.to_array busy;
        n = Vec.length lat;
        failed;
        peak;
      }
    else begin
      let t0 = now_ns () in
      let ns, p, ok = restart ctx fx in
      let cycle = now_ns () - t0 in
      let f = Pace.mark pace in
      Vec.push lat (float_of_int ns);
      Vec.push scaled_lat (float_of_int ns *. f);
      Vec.push busy (float_of_int cycle *. f);
      go (if ok then failed else failed + 1) (Float.max peak p)
    end
  in
  go 0 0.

let run_e2e ctx =
  let (fx, r), setup_s =
    with_setup ctx
      (fun () -> build_fixture ctx)
      (fun fx -> (fx, restarts ctx fx ~budget:(window_ns ctx)))
  in
  let fixture = fixture_json fx in
  {
    attempted = r.n;
    failed = r.failed + check_expected ctx "fixture" fixture;
    metrics =
      [
        ("ops_per_s", median_rate ~busy:r.busy ~work:(Array.make r.n 1));
        ("op_p50_ms", median_quantile_ms r.scaled_lat 0.5);
        ("op_p90_ms", median_quantile_ms r.scaled_lat 0.9);
        ("setup_s", setup_s);
        ("peak_rss_mb", r.peak);
      ];
    counts = [ ("fixture", fixture) ];
  }

(* {2 The traced run: the daemon's recovery steps, in process}

   The same steps [Daemon.create] takes on a journal directory, through
   the public [Journal] and [Session] calls, each timed: the scan, one
   header rebuild per session, one fingerprint check and [Session.exec]
   per tail entry, one compaction per session. *)

type steps = {
  mutable scan : int;
  mutable rebuild : int;
  mutable replay : int;
  mutable rewrite : int;
  mutable journals : int;
  mutable entries : int;
  mutable bytes : int;
}

let recover_in_process st fx dir =
  let resolve = Adpm_scenarios.Registry.resolve_result in
  List.iter
    (fun f -> st.bytes <- st.bytes + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    fx.files;
  let t0 = now_ns () in
  let scanned, warnings = Journal.scan ~dir in
  st.scan <- st.scan + (now_ns () - t0);
  let ok = ref (warnings = []) in
  List.iter
    (fun (sc : Journal.scanned) ->
      let sid = sc.Journal.sc_sid in
      let t1 = now_ns () in
      match
        Result.map_error
          (fun m -> Session.Rs_corrupt m)
          (Session.header_of_json ~marker sc.Journal.sc_header)
        |> Fun.flip Result.bind (Session.rebuild ~resolve ~id:sid)
      with
      | Error _ -> ok := false
      | Ok (s, _) ->
        let t2 = now_ns () in
        st.rebuild <- st.rebuild + (t2 - t1);
        List.iter
          (fun entry ->
            let t3 = now_ns () in
            (match
               ( Option.bind (Json.member "cmd" entry) Json.to_str,
                 Option.bind (Json.member "fp" entry) Json.to_str )
             with
            | Some line, Some fp when fp = Session.fingerprint s ->
              ignore (Session.exec s line : (string, string) result)
            | _ -> ok := false);
            st.replay <- st.replay + (now_ns () - t3);
            st.entries <- st.entries + 1)
          sc.Journal.sc_entries;
        let t4 = now_ns () in
        (match Journal.reopen ~dir ~sid with
        | Ok j ->
          let header =
            Json.Obj
              (Session.header_fields ~marker s @ [ ("session", Json.Str sid) ])
          in
          if Journal.rewrite j header <> Ok () then ok := false;
          Journal.close j
        | Error _ -> ok := false);
        st.rewrite <- st.rewrite + (now_ns () - t4);
        st.journals <- st.journals + 1;
        if List.assoc_opt sid fx.fingerprints <> Some (Session.fingerprint s) then
          ok := false)
    scanned;
  !ok

(* The whole recovery through [Daemon.create], untimed inside: the
   reference the step-by-step replay's overhead is measured against. *)
let recover_daemon ctx dir =
  let t0 = now_ns () in
  let d = in_process_daemon ctx ~name:"inproc" ~journal_dir:dir in
  let ns = now_ns () - t0 in
  Daemon.stop d;
  ns

let run_traced ctx =
  let fx = build_fixture ctx in
  let r = restarts ctx fx ~budget:(window_ns ctx / 2) in
  (* a daemon with nothing to recover: the cost of the process itself *)
  let spawn = Stats_acc.create () in
  for _ = 1 to min r.n 5 do
    let journal_dir = fresh_dir ctx "empty" in
    let d, conns, _, ns = start_daemon ctx ~name:"empty" ~journal_dir ~conns:1 in
    Stats_acc.add spawn (float_of_int ns);
    ignore (shutdown_daemon d (List.hd conns) : bool)
  done;
  let st =
    { scan = 0; rebuild = 0; replay = 0; rewrite = 0; journals = 0; entries = 0; bytes = 0 }
  in
  let failed = ref r.failed and plain = ref 0 and timed = ref 0 in
  for _ = 1 to r.n do
    plain := !plain + recover_daemon ctx (copy_fixture ctx fx "inproc");
    let dir = copy_fixture ctx fx "steps" in
    let t0 = now_ns () in
    if not (recover_in_process st fx dir) then begin
      complain "in-process recovery diverged";
      incr failed
    end;
    timed := !timed + (now_ns () - t0)
  done;
  let n = float_of_int r.n in
  let item = Array.fold_left ( +. ) 0. r.lat /. float_of_int r.n in
  let share total = float_of_int total /. n /. item in
  let per k = float_of_int k /. n in
  {
    attempted = r.n;
    failed = !failed + check_expected ctx "fixture" (fixture_json fx);
    metrics =
      [
        ("daemon.spawn.share", Stats_acc.mean spawn /. item);
        ("daemon.spawn.calls", 1.);
        ("journal.scan.share", share st.scan);
        ("journal.scan.calls", per st.journals);
        ("session.rebuild.share", share st.rebuild);
        ("session.rebuild.calls", per st.journals);
        ("session.replay_entry.share", share st.replay);
        ("session.replay_entry.calls", per st.entries);
        ("journal.rewrite.share", share st.rewrite);
        ("journal.rewrite.calls", per st.journals);
        ("journal.bytes_scanned", per st.bytes);
        ("layers.item_us", item /. 1e3);
        ("trace.overhead", (float_of_int !timed /. float_of_int !plain) -. 1.);
      ];
    counts = [ ("fixture", fixture_json fx) ];
  }

let run ctx = if ctx.traced then run_traced ctx else run_e2e ctx
