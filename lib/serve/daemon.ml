open Adpm_teamsim
module Json = Adpm_trace.Json

type addr = Unix_path of string | Tcp of string * int

type config = {
  dc_addr : addr;
  dc_scenarios : Scenario.t list;
  dc_resolve : string -> (Scenario.t, string) result;
  dc_max_sessions : int;
  dc_max_frame : int;
  dc_checkpoint_dir : string;
  dc_journal_dir : string option;
  dc_max_conns : int;
  dc_max_write_buf : int;
  dc_max_ops : int;
  dc_reply_cache : int;
  dc_sndbuf : int option;
}

let default_config ~addr ~scenarios =
  {
    dc_addr = addr;
    dc_scenarios = scenarios;
    dc_resolve =
      (fun name ->
        match Scenario.find scenarios name with
        | Some s -> Ok s
        | None ->
          Error
            (Printf.sprintf "unknown scenario %s (known: %s)" name
               (String.concat ", "
                  (List.map (fun s -> s.Scenario.sc_name) scenarios))));
    dc_max_sessions = 256;
    dc_max_frame = Wire.default_max_frame;
    dc_checkpoint_dir = Filename.current_dir_name;
    dc_journal_dir = None;
    dc_max_conns = 64;
    dc_max_write_buf = 4 lsl 20;
    dc_max_ops = 0;
    dc_reply_cache = 64;
    dc_sndbuf = None;
  }

type conn = {
  cn_fd : Unix.file_descr;
  cn_reader : Wire.Reader.t;
  cn_out : Buffer.t;
  mutable cn_closing : bool;  (* close once cn_out drains *)
  mutable cn_dead : bool;
}

(* The journal directory and the pool its fsyncs go through. *)
type wal = { dir : string; pool : Sync_pool.t }

(* A reply that may leave the daemon only once [p_upto], the last fsync
   submitted when its request had been handled, is durable. *)
type pending = {
  p_reply : Json.t;
  p_id : Json.t option;
  p_session : string option;  (* the session the request named or opened *)
  p_cache : (string * string) option;  (* its reply-cache key *)
  p_upto : int;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
  mutable held : (conn * pending) list;  (* newest first *)
  sessions : (string, Session.t) Hashtbl.t;
  resolved : (string, Scenario.t * int ref) Hashtbl.t;
  journals : (string, Journal.t) Hashtbl.t;
  wal : wal option;
  lock : Journal.lock option;
  reply_cache : (string, (string * Json.t) list ref) Hashtbl.t;
  cache_order : string Queue.t;  (* client tokens, first-seen order *)
  mutable recovered : (string * int) list;
  mutable warnings : string list;
  mutable next_session : int;
  mutable stopping : bool;
}

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let journal_marker = "teamsimd_journal"

(* {2 Bounded reply cache}

   Keyed by (client token, request id): a reconnecting client that never
   saw its reply resends the identical frame, and the daemon answers from
   here instead of executing the command a second time. Bounded per
   client ([dc_reply_cache] newest replies) and in client count, so a
   token-spraying peer cannot balloon memory. *)

let max_cache_clients = 256

let cache_key id = Json.to_string id

let cache_find t ~client ~key =
  match Hashtbl.find_opt t.reply_cache client with
  | None -> None
  | Some entries -> List.assoc_opt key !entries

let cache_store t ~client ~key resp =
  let entries =
    match Hashtbl.find_opt t.reply_cache client with
    | Some r -> r
    | None ->
      if Hashtbl.length t.reply_cache >= max_cache_clients then
        (match Queue.take_opt t.cache_order with
        | Some oldest -> Hashtbl.remove t.reply_cache oldest
        | None -> ());
      let r = ref [] in
      Hashtbl.replace t.reply_cache client r;
      Queue.add client t.cache_order;
      r
  in
  let rec keep n = function
    | [] -> []
    | _ when n <= 0 -> []
    | e :: rest -> e :: keep (n - 1) rest
  in
  entries :=
    (key, resp) :: keep (t.cfg.dc_reply_cache - 1) (List.remove_assoc key !entries)

(* {2 Journal recovery} *)

let warn t fmt = Printf.ksprintf (fun m -> t.warnings <- t.warnings @ [ m ]) fmt

let exec_reply ?id s result =
  match result with
  | Ok output ->
    Wire.ok_frame ?id
      [
        ("output", Json.Str output);
        ("prompt", Json.Str (Session.prompt s));
        ("finished", Json.Bool (Session.finished s));
      ]
  | Error msg -> Wire.error_frame ?id ~code:Wire.Command msg

let seed_cache_from t json =
  match
    ( Option.bind (Json.member "reply_client" json) Json.to_str,
      Json.member "reply_id" json )
  with
  | Some client, Some id -> (
    match Json.member "reply" json with
    | Some reply -> cache_store t ~client ~key:(cache_key id) reply
    | None -> ())
  | _ -> ()

(* {2 Sessions and the scenarios they share}

   A [gen:] reference is resolved once while any session uses it, so its
   sessions share one compiled template (Scenario.compiled is cached per
   scenario value). A [file:] reference is resolved afresh each time: the
   file may have changed. Plain names already resolve to shared values. *)

let resolve t name =
  match Hashtbl.find_opt t.resolved name with
  | Some (sc, _) -> Ok sc
  | None -> t.cfg.dc_resolve name

let add_session t sid s =
  Hashtbl.replace t.sessions sid s;
  let name = Session.reference s in
  if String.starts_with ~prefix:"gen:" name then
    match Hashtbl.find_opt t.resolved name with
    | Some (_, users) -> incr users
    | None -> Hashtbl.replace t.resolved name (Session.scenario s, ref 1)

let remove_session t sid =
  match Hashtbl.find_opt t.sessions sid with
  | None -> ()
  | Some s -> (
    Hashtbl.remove t.sessions sid;
    let name = Session.reference s in
    match Hashtbl.find_opt t.resolved name with
    | Some (_, users) ->
      decr users;
      if !users = 0 then Hashtbl.remove t.resolved name
    | None -> ())

let pool t = Option.map (fun w -> w.pool) t.wal

(* A recovered session whose journal cannot be made durable is not
   served; its journal file stays for the next start. *)
let unserve t w sid msg =
  remove_session t sid;
  Option.iter
    (fun j ->
      Hashtbl.remove t.journals sid;
      Journal.close ~sync:w.pool j)
    (Hashtbl.find_opt t.journals sid);
  warn t "journal %s: %s (session not served)" sid msg

(* Drop a session and its journal file: the session ended (close, or a
   throwing exec tore it down), so there is nothing left to recover. *)
let drop_session t sid =
  remove_session t sid;
  match Hashtbl.find_opt t.journals sid with
  | Some j ->
    Hashtbl.remove t.journals sid;
    Journal.remove ?sync:(pool t) j
  | None -> ()

(* Replay one journal back into a live session. The header rebuilds the
   state it records (fingerprint-gated); each tail entry is
   fingerprint-checked against the state it was appended over, then
   replayed. An entry tagged with a (client, id) pair is executed in full
   and its reply re-cached, so a client resend after the crash is
   answered byte-identically without double-execution; an untagged one
   has no reader for its reply, so only its effects are replayed
   ([Session.replay]). Any damage stops the tail replay at the last
   consistent point — never the whole recovery.

   An intact journal is kept as it is and reopened for appending: the
   rebuild re-issues the header's whole command log either way, so
   folding the tail into a fresh header would save no replay. A damaged
   one (dropped lines, or a tail replay that stopped early) is repaired:
   rewritten as its scanned header and the entries replayed, so the
   reply-cache tags of both survive. Either way its fsync is submitted
   to the pool, and [Some (sid, replayed, seq)] names the last fsync the
   session's durability waits on. *)
let recover_one t w (sc : Journal.scanned) =
  let sid = sc.Journal.sc_sid in
  match Session.header_of_json ~marker:journal_marker sc.Journal.sc_header with
  | Error msg ->
    Journal.quarantine sc.Journal.sc_path;
    warn t "journal %s: %s (quarantined)" sid msg;
    None
  | Ok header -> (
    match Session.rebuild ~resolve:(resolve t) ~id:sid header with
    | Error err ->
      Journal.quarantine sc.Journal.sc_path;
      let msg =
        match err with
        | Session.Rs_io m | Session.Rs_corrupt m | Session.Rs_mismatch m -> m
      in
      warn t "journal %s: cannot rebuild session: %s (quarantined)" sid msg;
      None
    | Ok (s, replayed) -> (
      if sc.Journal.sc_dropped > 0 then
        warn t "journal %s: dropped %d damaged trailing line(s)" sid
          sc.Journal.sc_dropped;
      seed_cache_from t sc.Journal.sc_header;
      let executed = ref 0 in
      let repair = ref (sc.Journal.sc_dropped > 0) in
      (try
         List.iter
           (fun entry ->
             match Option.bind (Json.member "cmd" entry) Json.to_str with
             | None ->
               warn t "journal %s: entry without \"cmd\"; dropping rest" sid;
               raise Exit
             | Some line -> (
               (match Option.bind (Json.member "fp" entry) Json.to_str with
               | Some fp when not (String.equal fp (Session.fingerprint s)) ->
                 warn t
                   "journal %s: entry fingerprint diverges from replay; \
                    dropping rest"
                   sid;
                 raise Exit
               | _ -> ());
               let id = Json.member "id" entry in
               let client = Option.bind (Json.member "client" entry) Json.to_str in
               match
                 (match (client, id) with
                 | Some client, Some idv ->
                   cache_store t ~client ~key:(cache_key idv)
                     (exec_reply ?id s (Session.exec s line))
                 | _ -> Session.replay s line)
               with
               | () -> incr executed
               | exception e ->
                 warn t "journal %s: replay of %S raised %s; dropping rest" sid
                   line (Printexc.to_string e);
                 raise Exit))
           sc.Journal.sc_entries
       with Exit -> repair := true);
      add_session t sid s;
      (* keep "s%d" ids monotone across the restart *)
      (match int_of_string_opt (String.sub sid 1 (String.length sid - 1)) with
      | Some n when String.length sid > 1 && sid.[0] = 's' ->
        if n > t.next_session then t.next_session <- n
      | _ -> ());
      match Journal.reopen ~dir:w.dir ~sid with
      | Error msg ->
        unserve t w sid ("cannot reopen: " ^ msg);
        None
      | Ok j -> (
        Hashtbl.replace t.journals sid j;
        match
          if !repair then
            let kept i _ = i < !executed in
            Journal.rewrite ~sync:w.pool j sc.Journal.sc_header
              ~entries:(List.filteri kept sc.Journal.sc_entries)
          else Journal.sync w.pool j
        with
        | Ok () -> Some (sid, replayed + !executed, Sync_pool.submitted w.pool)
        | Error msg ->
          unserve t w sid
            ((if !repair then "cannot repair: " else "cannot sync: ") ^ msg);
          None)))

(* A daemon killed mid-run may have written journal lines it never
   fsync'd, and recovery executed them: every kept journal, and the
   directory (renames by repairs and quarantines), is made durable in one
   concurrent batch before the daemon serves. A journal whose fsync fails
   is not served; it stays on disk for the next start. *)
let recover t w =
  let scanned, scan_warnings = Journal.scan ~dir:w.dir in
  List.iter (fun m -> warn t "%s" m) scan_warnings;
  let kept = List.filter_map (recover_one t w) scanned in
  let dir_seq =
    if scanned = [] && scan_warnings = [] then Sync_pool.submitted w.pool
    else Sync_pool.submit w.pool (Sync_pool.Dir w.dir)
  in
  Sync_pool.wait w.pool dir_seq;
  List.iter
    (fun (sid, replayed, upto) ->
      match Sync_pool.take_failures w.pool ~upto with
      | [] -> t.recovered <- t.recovered @ [ (sid, replayed) ]
      | (_, msg) :: _ -> unserve t w sid msg)
    kept;
  match Sync_pool.take_failures w.pool ~upto:dir_seq with
  | [] -> ()
  | (_, msg) :: _ -> failwith (Printf.sprintf "cannot sync journal dir: %s" msg)

(* Journal files deliberately survive [stop]: they are the crash-recovery
   state, and a restarted daemon pointed at the same --journal-dir will
   rebuild every session from them. Only [close] (the op) and session
   teardown delete a session's journal. *)
let stop t =
  List.iter
    (fun c -> try Unix.close c.cn_fd with Unix.Unix_error _ -> ())
    t.conns;
  t.conns <- [];
  t.held <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.cfg.dc_addr with
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ());
  Option.iter (fun w -> Sync_pool.stop w.pool) t.wal;
  Hashtbl.iter (fun _ j -> Journal.close j) t.journals;
  Hashtbl.reset t.journals;
  (match t.lock with Some l -> Journal.release l | None -> ());
  Hashtbl.reset t.sessions;
  Hashtbl.reset t.resolved

(* Concurrency story (see DESIGN.md §14): a single-threaded non-blocking
   event loop — no Domain.spawn, so a process hosting a daemon may still
   [Unix.fork] (the OCaml 5 runtime forbids forking once a domain has
   been spawned). Session work is CPU-cheap (one propagation per op), so
   multiplexing beats per-session domains at this granularity. The only
   other threads are the journal's fsync pool (§14.2). *)
let create cfg =
  Wire.ignore_sigpipe ();
  let lock =
    match cfg.dc_journal_dir with
    | None -> None
    | Some dir -> (
      match Journal.acquire ~dir with
      | Ok l -> Some l
      | Error msg -> failwith msg)
  in
  let release_lock () =
    match lock with Some l -> Journal.release l | None -> ()
  in
  let domain, addr =
    match cfg.dc_addr with
    | Unix_path p ->
      (* a stale socket file from a killed daemon must not block rebind *)
      if Sys.file_exists p then (try Unix.unlink p with Unix.Unix_error _ -> ());
      (Unix.PF_UNIX, sockaddr_of cfg.dc_addr)
    | Tcp _ -> (Unix.PF_INET, sockaddr_of cfg.dc_addr)
  in
  let fd =
    match Unix.socket domain Unix.SOCK_STREAM 0 with
    | fd -> fd
    | exception e ->
      release_lock ();
      raise e
  in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.set_close_on_exec fd;
  (try
     Unix.bind fd addr;
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     release_lock ();
     raise e);
  let t =
    {
      cfg;
      listen_fd = fd;
      conns = [];
      held = [];
      sessions = Hashtbl.create 64;
      resolved = Hashtbl.create 8;
      journals = Hashtbl.create 64;
      wal =
        Option.map
          (fun dir -> { dir; pool = Sync_pool.create () })
          cfg.dc_journal_dir;
      lock;
      reply_cache = Hashtbl.create 64;
      cache_order = Queue.create ();
      recovered = [];
      warnings = [];
      next_session = 0;
      stopping = false;
    }
  in
  (match Option.iter (recover t) t.wal with
  | () -> ()
  | exception e ->
    stop t;
    raise e);
  t

let session_count t = Hashtbl.length t.sessions
let find_session t id = Hashtbl.find_opt t.sessions id
let recovered_sessions t = t.recovered
let warnings t = t.warnings

let fresh_session_id t =
  t.next_session <- t.next_session + 1;
  Printf.sprintf "s%d" t.next_session

let default_checkpoint_path t id =
  Filename.concat t.cfg.dc_checkpoint_dir (id ^ ".checkpoint.jsonl")

let scenario_listing t =
  Json.Arr
    (List.map
       (fun s -> Json.Str s.Scenario.sc_name)
       t.cfg.dc_scenarios)

let with_session t ?id name k =
  match find_session t name with
  | None ->
    Wire.error_frame ?id ~code:Wire.Unknown_session
      (Printf.sprintf "no session %s" name)
  | Some s -> k s

(* Start journaling a session the moment it exists. The header snapshots
   creation parameters (and, for [resume], the already-replayed command
   log); [reply_client]/[reply_id]/[reply] stash the response verbatim so
   recovery can re-seed the reply cache for the very request that created
   the session. On journal failure the session is refused outright —
   running a session the daemon has promised to recover but cannot is
   worse than an [io] error frame. *)
let start_journal t ~sid ~s ?client ?id reply =
  match t.wal with
  | None -> reply
  | Some w -> (
    let extras =
      (match client with
      | Some c -> [ ("reply_client", Json.Str c) ]
      | None -> [])
      @ (match id with Some v -> [ ("reply_id", v) ] | None -> [])
      @ match (client, id) with
        | Some _, Some _ -> [ ("reply", reply) ]
        | _ -> []
    in
    match
      Journal.create ~sync:w.pool ~dir:w.dir ~sid
        (Json.Obj
           (Session.header_fields ~marker:journal_marker s
           @ (("session", Json.Str sid) :: extras)))
    with
    | Ok j ->
      Hashtbl.replace t.journals sid j;
      reply
    | Error msg ->
      remove_session t sid;
      Wire.error_frame ?id ~code:Wire.Io
        (Printf.sprintf "cannot journal session: %s" msg))

let exec_entry ?client ?id ~s line =
  Json.Obj
    ([ ("cmd", Json.Str line); ("fp", Json.Str (Session.fingerprint s)) ]
    @ (match client with Some c -> [ ("client", Json.Str c) ] | None -> [])
    @ match id with Some v -> [ ("id", v) ] | None -> [])

(* WAL: the command line (and the fingerprint of the state it runs over)
   is written before execution, and its fsync submitted; the reply waits
   for that fsync. *)
let journal_exec t ~sid ~s ?client ?id line =
  match (t.wal, Hashtbl.find_opt t.journals sid) with
  | None, _ -> Ok ()
  | Some _, None -> Error (Printf.sprintf "session %s has no journal" sid)
  | Some w, Some j -> Journal.write ~sync:w.pool j (exec_entry ?client ?id ~s line)

let submitted t =
  match t.wal with None -> 0 | Some w -> Sync_pool.submitted w.pool

let held_reply ?id ?session ?cache t reply =
  { p_reply = reply; p_id = id; p_session = session; p_cache = cache; p_upto = submitted t }

(* Dispatch one request. Its reply is held: see [release]. *)
let serve t req_json =
  let id = Wire.request_id req_json in
  let client = Wire.request_client req_json in
  let dispatch () =
    match Wire.request_of_json req_json with
    | Error msg -> Wire.error_frame ?id ~code:Wire.Bad_request msg
    | Ok Wire.Hello ->
      Wire.ok_frame ?id
        [
          ("server", Json.Str "teamsimd");
          ("protocol", Json.Num 1.);
          ("scenarios", scenario_listing t);
          ("sessions", Json.Num (float_of_int (session_count t)));
        ]
    | Ok (Wire.Open { scenario; mode; seed; designer }) ->
      if session_count t >= t.cfg.dc_max_sessions then
        Wire.error_frame ?id ~code:Wire.Session_limit
          (Printf.sprintf "session limit %d reached" t.cfg.dc_max_sessions)
      else begin
        (* resolution failures (unknown name, malformed gen: spec,
           unreadable file:) are command-level errors: the daemon answers
           with a frame and keeps serving, never a failed session *)
        match resolve t scenario with
        | Error msg -> Wire.error_frame ?id ~code:Wire.Unknown_scenario msg
        | Ok sc -> (
          let sid = fresh_session_id t in
          match
            Session.create ~resolve:(fun _ -> Ok sc) ~id:sid ~scenario ~mode
              ~seed ~designer
          with
          | Error msg -> Wire.error_frame ?id ~code:Wire.Bad_request msg
          | Ok s ->
            add_session t sid s;
            let reply =
              Wire.ok_frame ?id
                [
                  ("session", Json.Str sid);
                  ("prompt", Json.Str (Session.prompt s));
                ]
            in
            start_journal t ~sid ~s ?client ?id reply)
      end
    | Ok (Wire.Exec { session; line }) ->
      with_session t ?id session (fun s ->
          if
            t.cfg.dc_max_ops > 0
            && Session.command_count s >= t.cfg.dc_max_ops
          then
            Wire.error_frame ?id ~code:Wire.Overloaded
              (Printf.sprintf "session %s exhausted its op budget (%d)" session
                 t.cfg.dc_max_ops)
          else
            (* write-ahead: journal the command before running it; if the
               journal cannot take it, the command must not run *)
            match journal_exec t ~sid:session ~s ?client ?id line with
            | Error msg ->
              Wire.error_frame ?id ~code:Wire.Io
                (Printf.sprintf "cannot journal command: %s" msg)
            | Ok () -> (
              match Session.exec s line with
              | result -> exec_reply ?id s result
              | exception e ->
                (* isolation: a throwing session dies alone; the daemon and
                   its other sessions keep serving *)
                drop_session t session;
                Wire.error_frame ?id ~code:Wire.Session_failed
                  (Printf.sprintf "session %s failed and was closed: %s"
                     session (Printexc.to_string e))))
    | Ok (Wire.Status { session }) ->
      with_session t ?id session (fun s ->
          Wire.ok_frame ?id (Session.status_fields s))
    | Ok (Wire.Checkpoint { session; path }) ->
      with_session t ?id session (fun s ->
          let path =
            match path with
            | Some p -> p
            | None -> default_checkpoint_path t session
          in
          match Session.checkpoint s ~path with
          | Ok events ->
            Wire.ok_frame ?id
              [
                ("path", Json.Str path);
                ("events", Json.Num (float_of_int events));
                ("fingerprint", Json.Str (Session.fingerprint s));
              ]
          | Error msg -> Wire.error_frame ?id ~code:Wire.Io msg)
    | Ok (Wire.Resume { path }) ->
      if session_count t >= t.cfg.dc_max_sessions then
        Wire.error_frame ?id ~code:Wire.Session_limit
          (Printf.sprintf "session limit %d reached" t.cfg.dc_max_sessions)
      else begin
        let sid = fresh_session_id t in
        match Session.resume ~resolve:(resolve t) ~id:sid ~path with
        | Ok (s, replayed) ->
          add_session t sid s;
          let reply =
            Wire.ok_frame ?id
              [
                ("session", Json.Str sid);
                ("commands_replayed", Json.Num (float_of_int replayed));
                ("fingerprint", Json.Str (Session.fingerprint s));
                ("prompt", Json.Str (Session.prompt s));
              ]
          in
          start_journal t ~sid ~s ?client ?id reply
        | Error (Session.Rs_io msg) -> Wire.error_frame ?id ~code:Wire.Io msg
        | Error (Session.Rs_corrupt msg) ->
          Wire.error_frame ?id ~code:Wire.Bad_checkpoint msg
        | Error (Session.Rs_mismatch msg) ->
          Wire.error_frame ?id ~code:Wire.Resume_mismatch msg
      end
    | Ok (Wire.Close { session }) ->
      with_session t ?id session (fun _ ->
          drop_session t session;
          Wire.ok_frame ?id [ ("closed", Json.Str session) ])
    | Ok Wire.Shutdown ->
      t.stopping <- true;
      Wire.ok_frame ?id [ ("stopping", Json.Bool true) ]
  in
  (* idempotency: a (client, id) pair names one logical request; a resend
     after connection loss is answered from the bounded reply cache
     instead of executed a second time *)
  let key =
    match (client, id) with
    | Some c, Some i -> Some (c, cache_key i)
    | _ -> None
  in
  let resp =
    match key with
    | Some (client, key) when cache_find t ~client ~key <> None ->
      Option.get (cache_find t ~client ~key)
    | _ ->
      let resp =
        match dispatch () with
        | resp -> resp
        | exception e ->
          Wire.error_frame ?id ~code:Wire.Internal (Printexc.to_string e)
      in
      (match key with
      | Some (client, key) -> cache_store t ~client ~key resp
      | None -> ());
      resp
  in
  let named json = Option.bind (Json.member "session" json) Json.to_str in
  let session =
    match named req_json with Some s -> Some s | None -> named resp
  in
  held_reply ?id ?session ?cache:key t resp

let serve_line t line =
  match Json.parse line with
  | Ok j -> serve t j
  | Error msg -> held_reply t (Wire.error_frame ~code:Wire.Parse msg)

(* Replies leave in the order their requests were handled, each once
   every fsync submitted before it is durable. A failed fsync closes the
   session whose journal it covered, and turns that reply, and every
   later one naming the session, into an [io] frame: the daemon never
   answers with state it could not recover. *)
let release t pendings =
  match t.wal with
  | None -> List.map (fun p -> p.p_reply) pendings
  | Some w ->
    let failed = Hashtbl.create 1 in
    List.map
      (fun p ->
        Sync_pool.wait w.pool p.p_upto;
        (match (Sync_pool.take_failures w.pool ~upto:p.p_upto, p.p_session) with
        | (_, msg) :: _, Some sid ->
          Hashtbl.replace failed sid msg;
          drop_session t sid
        | _ -> ());
        match p.p_session with
        | Some sid when Hashtbl.mem failed sid ->
          let resp =
            Wire.error_frame ?id:p.p_id ~code:Wire.Io
              (Printf.sprintf
                 "journal of session %s is not durable; the session was \
                  closed: %s"
                 sid (Hashtbl.find failed sid))
          in
          Option.iter (fun (client, key) -> cache_store t ~client ~key resp) p.p_cache;
          resp
        | _ -> p.p_reply)
      pendings

let handle t req_json = List.hd (release t [ serve t req_json ])
let handle_line t line = List.hd (release t [ serve_line t line ])

(* Back-pressure: a peer that stops reading while the daemon keeps
   producing would otherwise grow cn_out without bound. Past
   [dc_max_write_buf] buffered bytes the client is declared slow and
   disconnected — protecting the daemon is worth more than the laggard. *)
let enqueue t conn resp =
  Buffer.add_string conn.cn_out (Json.to_string resp);
  Buffer.add_char conn.cn_out '\n';
  if Buffer.length conn.cn_out > t.cfg.dc_max_write_buf then conn.cn_dead <- true

let read_conn t conn =
  let hold conn p = t.held <- (conn, p) :: t.held in
  let chunk = Bytes.create 4096 in
  let rec drain_frames () =
    match Wire.Reader.next conn.cn_reader with
    | `Pending -> ()
    | `Oversize ->
      hold conn
        (held_reply t
           (Wire.error_frame ~code:Wire.Oversize
              (Printf.sprintf "frame exceeds %d bytes; closing connection"
                 t.cfg.dc_max_frame)));
      conn.cn_closing <- true
    | `Frame line ->
      hold conn (serve_line t line);
      drain_frames ()
  in
  match Unix.read conn.cn_fd chunk 0 (Bytes.length chunk) with
  | 0 -> conn.cn_dead <- true
  | n ->
    Wire.Reader.feed conn.cn_reader (Bytes.sub_string chunk 0 n);
    drain_frames ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error _ -> conn.cn_dead <- true

let write_conn conn =
  let pending = Buffer.contents conn.cn_out in
  let n = String.length pending in
  if n > 0 then begin
    match Unix.write_substring conn.cn_fd pending 0 n with
    | written ->
      Buffer.clear conn.cn_out;
      if written < n then
        Buffer.add_substring conn.cn_out pending written (n - written)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> conn.cn_dead <- true
  end;
  if conn.cn_closing && Buffer.length conn.cn_out = 0 then conn.cn_dead <- true

(* Admission control: past [dc_max_conns] live connections a newcomer is
   told [overloaded] and shown the door immediately — accepted only long
   enough to carry the error frame, never parked to wedge later. *)
let accept_new t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      Unix.set_close_on_exec fd;
      (match t.cfg.dc_sndbuf with
      | Some bytes -> (
        try Unix.setsockopt_int fd Unix.SO_SNDBUF bytes
        with Unix.Unix_error _ -> ())
      | None -> ());
      let conn =
        {
          cn_fd = fd;
          cn_reader = Wire.Reader.create ~max_frame:t.cfg.dc_max_frame ();
          cn_out = Buffer.create 256;
          cn_closing = false;
          cn_dead = false;
        }
      in
      if List.length t.conns >= t.cfg.dc_max_conns then begin
        enqueue t conn
          (Wire.error_frame ~code:Wire.Overloaded
             (Printf.sprintf "connection limit %d reached" t.cfg.dc_max_conns));
        conn.cn_closing <- true
      end;
      t.conns <- conn :: t.conns;
      loop ()
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
      ->
      ()
  in
  loop ()

let reap t =
  let dead, live = List.partition (fun c -> c.cn_dead) t.conns in
  List.iter (fun c -> try Unix.close c.cn_fd with Unix.Unix_error _ -> ()) dead;
  t.conns <- live

let pending_output t =
  List.exists (fun c -> Buffer.length c.cn_out > 0) t.conns

let step ?(timeout = 0.05) t =
  if t.stopping && not (pending_output t) then false
  else begin
    let reads =
      t.listen_fd :: List.filter_map
                       (fun c -> if c.cn_dead then None else Some c.cn_fd)
                       t.conns
    in
    let writes =
      List.filter_map
        (fun c ->
          if (not c.cn_dead) && Buffer.length c.cn_out > 0 then Some c.cn_fd
          else None)
        t.conns
    in
    (match Unix.select reads writes [] timeout with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | readable, writable, _ ->
      if List.memq t.listen_fd readable then accept_new t;
      List.iter
        (fun c ->
          if (not c.cn_dead) && List.memq c.cn_fd readable then read_conn t c)
        t.conns;
      let held = List.rev t.held in
      t.held <- [];
      List.iter2
        (fun (c, _) resp -> enqueue t c resp)
        held
        (release t (List.map snd held));
      List.iter
        (fun c ->
          if
            (not c.cn_dead)
            && (List.memq c.cn_fd writable || Buffer.length c.cn_out > 0)
          then write_conn c)
        t.conns);
    reap t;
    not (t.stopping && not (pending_output t))
  end

let run t =
  while step t do
    ()
  done;
  stop t
