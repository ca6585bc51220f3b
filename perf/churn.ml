(* teamsimd-churn: a closed loop against a real [teamsim serve
   --journal-dir] child. Two connections, one request in flight on each,
   no think time. 64 session slots (alternating sensor and receiver,
   ADPM) are split between the connections; each connection serves its
   slots round robin.

   A slot's requests cycle through exec auto, exec props, exec step and
   status: half writes, a quarter journaled reads, a quarter reads the
   journal never sees. A session that reports [finished] or reaches 40
   commands gets a final status (its fingerprint) and a close, and the
   slot reopens with the next seed. Connection 0 sends a client token
   with every request, so the daemon stores each reply in its reply
   cache; connection 1 does not.

   An item is one request. Every closed session's fingerprint must equal
   an in-process [Interactive] reference that executes the same lines. *)

open Adpm_core
open Adpm_serve
open Common

let max_commands = 40
let cycle = [| Some "auto"; Some "props"; Some "step"; None |]

type kind = Open | Exec | Status | Close

type session = {
  slot : int;
  gen : int;
  scenario : string;
  seed : int;
  designer : string;
  mutable lines : string list;  (* exec lines, newest first *)
  mutable fingerprint : string;
}

type phase = Opening | Running | Final_status | Closing | Retired

type slot = {
  index : int;
  scen : string;
  designers : string array;
  mutable gen : int;
  mutable phase : phase;
  mutable sess : session option;
  mutable sid : string;
  mutable commands : int;
  mutable pos : int;
  mutable finished : bool;
}

(* One sent request, as the in-process replay needs it. *)
type step = {
  conn : int;
  id : int;
  kind : kind;
  of_session : session;
  line : string;  (* the exec line *)
  reply : string;  (* the raw response frame *)
}

type inflight = {
  i_slot : slot;
  i_kind : kind;
  i_line : string;
  i_id : int;
  i_sent : int;
  i_measured : bool;
}

type client = {
  c : conn;
  token : string option;
  slots : slot array;
  mutable next : int;
  mutable next_id : int;
  mutable inflight : inflight option;
}

let designers_of name =
  let sc = Adpm_scenarios.Registry.resolve name in
  Array.of_list (Dpm.designers (sc.Adpm_teamsim.Scenario.sc_build ~mode:Dpm.Adpm))

let slots ctx =
  let sensor = designers_of "sensor" and receiver = designers_of "receiver" in
  Array.init (scaled ctx ~min:2 64) (fun index ->
      let scen, designers =
        if index mod 2 = 0 then ("sensor", sensor) else ("receiver", receiver)
      in
      {
        index;
        scen;
        designers;
        gen = 0;
        phase = Opening;
        sess = None;
        sid = "";
        commands = 0;
        pos = 0;
        finished = false;
      })

(* The slot's next request, or [None] when it has nothing to send. Once
   the window is over ([draining]), sessions past their first
   generation close at once and nothing reopens; first-generation
   sessions run to their natural end, so their final fingerprints do
   not depend on how long the window was. *)
let next_request (ctx : ctx) ~draining s =
  match s.phase with
  | Retired | Final_status -> None
  | Opening when draining ->
    s.phase <- Retired;
    None
  | Opening ->
    let sess =
      {
        slot = s.index;
        gen = s.gen;
        scenario = s.scen;
        seed = derive ctx.seed (1000 + s.index) s.gen;
        designer = s.designers.(((s.index / 2) + s.gen) mod Array.length s.designers);
        lines = [];
        fingerprint = "";
      }
    in
    s.sess <- Some sess;
    Some
      ( Open,
        "",
        Wire.Open
          {
            scenario = sess.scenario;
            mode = Dpm.Adpm;
            seed = sess.seed;
            designer = sess.designer;
          } )
  | Running
    when s.finished || s.commands >= max_commands || (draining && s.gen > 0) ->
    s.phase <- Final_status;
    Some (Status, "", Wire.Status { session = s.sid })
  | Running -> (
    match cycle.(s.pos mod Array.length cycle) with
    | Some line -> Some (Exec, line, Wire.Exec { session = s.sid; line })
    | None -> Some (Status, "", Wire.Status { session = s.sid }))
  | Closing -> Some (Close, "", Wire.Close { session = s.sid })

type load = {
  lat : float Vec.t;  (* measured requests, ns, in reply order *)
  share : float Vec.t;  (* each measured request's share of its slice, ns *)
  factors : float Vec.t;  (* each measured request's slice's scale *)
  mutable elapsed : int;  (* the slices' wall time, probes excluded *)
  mutable failed : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable closed : session list;
  mutable script : step list;  (* measured requests, newest first *)
}

let on_reply load (f : inflight) (r : Wire.response) =
  let s = f.i_slot in
  if not r.Wire.r_ok then begin
    complain "slot %d: %s answered %s" s.index
      (match f.i_kind with
      | Open -> "open"
      | Exec -> "exec " ^ f.i_line
      | Status -> "status"
      | Close -> "close")
      (Json.to_string r.Wire.r_body);
    load.failed <- load.failed + 1;
    s.phase <- Retired
  end
  else
    let sess = Option.get s.sess in
    match f.i_kind with
    | Open ->
      s.sid <- Option.value ~default:"" (body_str r "session");
      s.phase <- Running;
      s.commands <- 0;
      s.pos <- 0;
      s.finished <- false
    | Exec ->
      sess.lines <- f.i_line :: sess.lines;
      s.commands <- s.commands + 1;
      s.pos <- s.pos + 1;
      s.finished <-
        Option.value ~default:false
          (Option.bind (Json.member "finished" r.Wire.r_body) Json.to_bool)
    | Status when s.phase = Final_status ->
      sess.fingerprint <- Option.value ~default:"" (body_str r "fingerprint");
      s.phase <- Closing
    | Status -> s.pos <- s.pos + 1
    | Close ->
      load.closed <- sess :: load.closed;
      s.gen <- s.gen + 1;
      s.phase <- Opening

(* Send the connection's next request, rotating over its slots. *)
let issue (ctx : ctx) load ~draining cl =
  let n = Array.length cl.slots in
  let rec try_from k =
    if k = n then ()
    else
      let s = cl.slots.((cl.next + k) mod n) in
      match next_request ctx ~draining s with
      | None -> try_from (k + 1)
      | Some (kind, line, req) ->
        cl.next <- (cl.next + k + 1) mod n;
        cl.next_id <- cl.next_id + 1;
        let frame =
          Json.to_string
            (Wire.request_to_json ~id:(Json.Num (float_of_int cl.next_id))
               ?client:cl.token req)
          ^ "\n"
        in
        let sent = now_ns () in
        Wire.write_all cl.c.fd frame;
        if not draining then load.bytes_in <- load.bytes_in + String.length frame;
        cl.inflight <-
          Some
            {
              i_slot = s;
              i_kind = kind;
              i_line = line;
              i_id = cl.next_id;
              i_sent = sent;
              i_measured = not draining;
            }
  in
  try_from 0

(* The load runs in slices of [slice_ns]: at the end of one, the clients
   stop sending, and once no request is in flight a probe scales the
   slice's latencies and its wall time, which its requests share. *)
let drive (ctx : ctx) clients ~budget =
  let start = now_ns () in
  let load =
    {
      lat = Vec.create 0.;
      share = Vec.create 0.;
      factors = Vec.create 0.;
      elapsed = 0;
      failed = 0;
      bytes_in = 0;
      bytes_out = 0;
      closed = [];
      script = [];
    }
  in
  let draining = ref false and pausing = ref false in
  let pace = Pace.start () in
  let slice_start = ref (now_ns ()) and last_reply = ref 0 in
  let close_slice () =
    let f = Pace.mark pace in
    let pending = Vec.length load.lat - Vec.length load.factors in
    if pending > 0 then begin
      let elapsed = !last_reply - !slice_start in
      load.elapsed <- load.elapsed + elapsed;
      for _ = 1 to pending do
        Vec.push load.factors f;
        Vec.push load.share (float_of_int elapsed /. float_of_int pending)
      done
    end;
    slice_start := now_ns ()
  in
  let rec loop () =
    if not !pausing then
      Array.iter
        (fun cl -> if cl.inflight = None then issue ctx load ~draining:!draining cl)
        clients;
    let busy = List.filter (fun cl -> cl.inflight <> None) (Array.to_list clients) in
    if busy <> [] then begin
      let fds = List.map (fun cl -> cl.c.fd) busy in
      (match Unix.select fds [] [] 60. with
      | [], _, _ -> failwith "daemon stalled for 60 s"
      | readable, _, _ ->
        List.iter
          (fun cl ->
            if List.memq cl.c.fd readable then
              match read_frame cl.c with
              | None -> ()
              | Some frame -> (
                let now = now_ns () in
                let f = Option.get cl.inflight in
                cl.inflight <- None;
                if f.i_measured then begin
                  Vec.push load.lat (float_of_int (now - f.i_sent));
                  last_reply := now;
                  load.bytes_out <- load.bytes_out + String.length frame + 1;
                  if ctx.traced then
                    load.script <-
                    {
                      conn = (if cl.token = None then 1 else 0);
                      id = f.i_id;
                      kind = f.i_kind;
                      of_session = Option.get f.i_slot.sess;
                      line = f.i_line;
                      reply = frame;
                    }
                    :: load.script
                end;
                match Wire.response_of_line frame with
                | Ok r -> on_reply load f r
                | Error msg -> failwith ("unparseable response: " ^ msg)))
          busy
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if (not !draining) && now_ns () - !slice_start >= slice_ns then pausing := true;
      loop ()
    end
    else if !pausing then begin
      close_slice ();
      pausing := false;
      if now_ns () - start >= budget then draining := true;
      loop ()
    end
  in
  loop ();
  if Vec.length load.factors < Vec.length load.lat then close_slice ();
  load

let scaled_lat load =
  Array.map2 ( *. ) (Vec.to_array load.lat) (Vec.to_array load.factors)

let scaled_busy load =
  Array.map2 ( *. ) (Vec.to_array load.share) (Vec.to_array load.factors)

(* The daemon and its two connected clients; set-up is spawn to both
   [hello]s answered. *)
let start ctx =
  let journal_dir = fresh_dir ctx "journal" in
  let d, conns, hellos, _ = start_daemon ctx ~name:"churn" ~journal_dir ~conns:2 in
  if not (List.for_all (fun r -> r.Wire.r_ok) hellos) then failwith "hello refused";
  (d, conns)

let stop (d, conns) =
  List.iter close_conn (List.tl conns);
  shutdown_daemon d (List.hd conns)

let clients_of ctx conns =
  let all = slots ctx in
  Array.of_list
    (List.mapi
       (fun k c ->
         {
           c;
           token = (if k = 0 then Some "perf-c0" else None);
           slots =
             Array.of_list
               (List.filter (fun s -> s.index mod 2 = k) (Array.to_list all));
           next = 0;
           next_id = 0;
           inflight = None;
         })
       conns)

(* Replay each closed session's lines through a local [Interactive]. *)
let reference_failures sessions =
  List.fold_left
    (fun bad sess ->
      let it =
        Adpm_teamsim.Interactive.create ~mode:Dpm.Adpm ~seed:sess.seed
          (Adpm_scenarios.Registry.resolve sess.scenario)
          ~designer:sess.designer
      in
      List.iter
        (fun l -> ignore (Adpm_teamsim.Interactive.execute it l : (string, string) result))
        (List.rev sess.lines);
      let fp = Session.fingerprint_of_interactive it in
      if fp = sess.fingerprint then bad
      else begin
        complain "slot %d gen %d: daemon fingerprint %S, reference %S" sess.slot
          sess.gen sess.fingerprint fp;
        bad + 1
      end)
    0 sessions

let first_generation (load : load) =
  let gen0 =
    List.sort
      (fun a b -> compare a.slot b.slot)
      (List.filter (fun (s : session) -> s.gen = 0) load.closed)
  in
  Json.Obj
    [
      ("sessions", Json.Num (float_of_int (List.length gen0)));
      ( "commands",
        Json.Num
          (float_of_int (List.fold_left (fun n s -> n + List.length s.lines) 0 gen0))
      );
      ( "fingerprints",
        Json.Str
          (Digest.to_hex
             (Digest.string
                (String.concat "\n" (List.map (fun s -> s.fingerprint) gen0)))) );
    ]

(* Load, drain, shut down, verify. A traced run also keeps the script
   of measured requests for the in-process replay. *)
let measure ctx ~budget =
  let (load, peak), setup_s =
    with_setup ctx
      ~discard:(fun daemon -> if not (stop daemon) then failwith "daemon exit")
      (fun () -> start ctx)
      (fun ((d, conns) as daemon) ->
        let load = drive ctx (clients_of ctx conns) ~budget in
        let peak = vm_hwm_mb (string_of_int d.pid) in
        if not (stop daemon) then begin
          complain "daemon did not exit cleanly:\n%s" (daemon_log d);
          load.failed <- load.failed + 1
        end;
        (load, peak))
  in
  let gen0 = first_generation load in
  load.failed <-
    load.failed + reference_failures load.closed
    + check_expected ctx "first_generation" gen0;
  (load, setup_s, peak, gen0)

let run_e2e ctx =
  let load, setup_s, peak, gen0 = measure ctx ~budget:(window_ns ctx) in
  let n = Vec.length load.lat and lat = scaled_lat load in
  {
    attempted = n;
    failed = load.failed;
    metrics =
      [
        ("ops_per_s", median_rate ~busy:(scaled_busy load) ~work:(Array.make n 1));
        ("op_p50_ms", median_quantile_ms lat 0.5);
        ("op_p90_ms", median_quantile_ms lat 0.9);
        ("setup_s", setup_s);
        ("peak_rss_mb", peak);
      ];
    counts = [ ("first_generation", gen0) ];
  }

(* {2 The traced run: the measured script again, in process} *)

let replay_sids script =
  let sids = Hashtbl.create 64 and next = ref 0 in
  List.iter
    (fun st ->
      if st.kind = Open then begin
        incr next;
        Hashtbl.replace sids (st.of_session.slot, st.of_session.gen)
          (Printf.sprintf "s%d" !next)
      end)
    script;
  fun (s : session) -> Hashtbl.find sids (s.slot, s.gen)

let request_of sid st =
  let s = st.of_session in
  match st.kind with
  | Open ->
    Wire.Open
      { scenario = s.scenario; mode = Dpm.Adpm; seed = s.seed; designer = s.designer }
  | Exec -> Wire.Exec { session = sid s; line = st.line }
  | Status -> Wire.Status { session = sid s }
  | Close -> Wire.Close { session = sid s }

let frame_of sid st =
  Json.to_string
    (Wire.request_to_json ~id:(Json.Num (float_of_int st.id))
       ?client:(if st.conn = 0 then Some "perf-c0" else None)
       (request_of sid st))
  ^ "\n"

let kind_index = function Open -> 0 | Exec -> 1 | Status -> 2 | Close -> 3

type replay = {
  wall : int;
  frame_ns : int;
  decode_ns : int;
  handle_ns : int array;  (* by kind *)
  handle_calls : int array;
  encode_ns : int;
  mismatched : int;  (* exec replies that differ from the real daemon's *)
}

(* The wire path of every scripted request: frame split, JSON decode,
   [Daemon.handle], JSON encode. With [stamp] each stage is timed;
   without, only the whole loop. *)
let replay_daemon ctx ~stamp frames script =
  let name = if stamp then "replay-t" else "replay-u" in
  let dir = fresh_dir ctx name in
  let d = in_process_daemon ctx ~name ~journal_dir:dir in
  let readers = [| Wire.Reader.create (); Wire.Reader.create () |] in
  let frame_ns = ref 0 and decode_ns = ref 0 and encode_ns = ref 0 in
  let handle_ns = Array.make 4 0 and handle_calls = Array.make 4 0 in
  let mismatched = ref 0 in
  let t_start = now_ns () in
  let last = ref t_start in
  List.iter2
    (fun st frame ->
      let r = readers.(st.conn) in
      Wire.Reader.feed r frame;
      let line =
        match Wire.Reader.next r with `Frame l -> l | _ -> failwith "replay frame"
      in
      let t1 = if stamp then now_ns () else 0 in
      let req = match Json.parse line with Ok j -> j | Error m -> failwith m in
      let t2 = if stamp then now_ns () else 0 in
      let resp = Daemon.handle d req in
      let t3 = if stamp then now_ns () else 0 in
      let out = Json.to_string resp in
      if stamp then begin
        let t4 = now_ns () in
        let k = kind_index st.kind in
        frame_ns := !frame_ns + (t1 - !last);
        decode_ns := !decode_ns + (t2 - t1);
        handle_ns.(k) <- handle_ns.(k) + (t3 - t2);
        handle_calls.(k) <- handle_calls.(k) + 1;
        encode_ns := !encode_ns + (t4 - t3);
        last := t4;
        if st.kind = Exec && out <> st.reply then incr mismatched
      end)
    script frames;
  let wall = now_ns () - t_start in
  Daemon.stop d;
  rm_rf dir;
  {
    wall;
    frame_ns = !frame_ns;
    decode_ns = !decode_ns;
    handle_ns;
    handle_calls;
    encode_ns = !encode_ns;
    mismatched = !mismatched;
  }

(* [Session.exec] alone, then the journal writes the daemon makes for
   the same script ([Journal.create] per open, [Journal.append] per
   exec), each timed on its own. *)
let replay_layers ctx sid script =
  let sessions = Hashtbl.create 64 in
  let session_ns = ref 0 and execs = ref 0 in
  let journal_ops = ref [] in
  List.iter
    (fun st ->
      let key = (st.of_session.slot, st.of_session.gen) in
      match st.kind with
      | Open -> (
        let s = st.of_session in
        match
          Session.create ~resolve:Adpm_scenarios.Registry.resolve_result
            ~id:(sid s) ~scenario:s.scenario ~mode:Dpm.Adpm ~seed:s.seed
            ~designer:s.designer
        with
        | Ok sess ->
          Hashtbl.replace sessions key sess;
          let header =
            Json.Obj
              (Session.header_fields ~marker:"teamsimd_journal" sess
              @ [ ("session", Json.Str (sid s)) ])
          in
          journal_ops := `Create (sid s, header) :: !journal_ops
        | Error m -> failwith m)
      | Exec ->
        let sess = Hashtbl.find sessions key in
        let entry =
          Json.Obj
            ([ ("cmd", Json.Str st.line); ("fp", Json.Str (Session.fingerprint sess)) ]
            @ (if st.conn = 0 then [ ("client", Json.Str "perf-c0") ] else [])
            @ [ ("id", Json.Num (float_of_int st.id)) ])
        in
        journal_ops := `Append (sid st.of_session, entry) :: !journal_ops;
        let t0 = now_ns () in
        ignore (Session.exec sess st.line : (string, string) result);
        session_ns := !session_ns + (now_ns () - t0);
        incr execs
      | Status | Close -> ())
    script;
  let dir = fresh_dir ctx "journal-replay" in
  let journals = Hashtbl.create 64 in
  let create_ns = ref 0 and append_ns = ref 0 in
  let ok = function Ok v -> v | Error m -> failwith m in
  List.iter
    (fun op ->
      let t0 = now_ns () in
      match op with
      | `Create (sid, header) ->
        Hashtbl.replace journals sid (ok (Journal.create ~dir ~sid header));
        create_ns := !create_ns + (now_ns () - t0)
      | `Append (sid, entry) ->
        ok (Journal.append (Hashtbl.find journals sid) entry);
        append_ns := !append_ns + (now_ns () - t0))
    (List.rev !journal_ops);
  Hashtbl.iter (fun _ j -> Journal.close j) journals;
  rm_rf dir;
  (!session_ns, !execs, !create_ns, !append_ns, Hashtbl.length journals)

(* The real run takes a third of the window: the in-process replays
   after it take about twice as long again. *)
let run_traced ctx =
  let load, _, _, gen0 = measure ctx ~budget:(window_ns ctx / 3) in
  let script = List.rev load.script in
  let sid = replay_sids script in
  let frames = List.map (frame_of sid) script in
  let plain = replay_daemon ctx ~stamp:false frames script in
  let timed = replay_daemon ctx ~stamp:true frames script in
  if timed.mismatched > 0 then
    complain "%d exec replies differ between the daemon and the replay"
      timed.mismatched;
  let session_ns, execs, create_ns, append_ns, creates = replay_layers ctx sid script in
  let n = Vec.length load.lat and elapsed = load.elapsed in
  let w = float_of_int elapsed in
  let share ns = float_of_int ns /. w in
  let per k = float_of_int k /. float_of_int n in
  let stage name ns = [ (name ^ ".share", share ns); (name ^ ".calls", 1.) ] in
  let handle =
    List.concat_map
      (fun (name, k) ->
        [
          (Printf.sprintf "daemon.handle.%s.share" name, share timed.handle_ns.(k));
          (Printf.sprintf "daemon.handle.%s.calls" name, per timed.handle_calls.(k));
        ])
      [ ("open", 0); ("exec", 1); ("status", 2); ("close", 3) ]
  in
  {
    attempted = n;
    failed = load.failed + timed.mismatched;
    metrics =
      stage "transport" (elapsed - timed.wall)
      @ stage "wire.frame" timed.frame_ns
      @ stage "json.decode" timed.decode_ns
      @ stage "json.encode" timed.encode_ns
      @ handle
      @ [
          ("session.exec.share", share session_ns);
          ("session.exec.calls", per execs);
          ("journal.append.share", share append_ns);
          ("journal.append.calls", per execs);
          ("journal.create.share", share create_ns);
          ("journal.create.calls", per creates);
          ("journal.fsyncs_per_op", per (creates + execs));
          ("wire.bytes_in_per_op", per load.bytes_in);
          ("wire.bytes_out_per_op", per load.bytes_out);
          ("layers.item_us", w /. float_of_int n /. 1e3);
          ("trace.overhead", (float_of_int timed.wall /. float_of_int plain.wall) -. 1.);
        ];
    counts = [ ("first_generation", gen0) ];
  }

let run ctx = if ctx.traced then run_traced ctx else run_e2e ctx
