module Json = Adpm_trace.Json
module Rng = Adpm_util.Rng

type t = {
  cl_addr : Unix.sockaddr;
  cl_max_frame : int option;
  mutable cl_fd : Unix.file_descr option;
  mutable cl_reader : Wire.Reader.t;
  mutable cl_next_id : int;
  (* persistent (reconnecting) mode; cl_client = None is the plain,
     connect-once client with the original first-frame semantics *)
  cl_client : string option;
  cl_retries : int;
  cl_backoff : float;
  cl_rng : Rng.t;
  mutable cl_connected_once : bool;
  mutable cl_reconnects : int;
}

exception Timeout
exception Closed

let dial addr =
  let domain =
    match addr with
    | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
    | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (* close-on-exec: a child forked elsewhere in the process (a test
     harness respawning the daemon, say) must not inherit this end and
     keep the connection alive after we close it *)
  Unix.set_close_on_exec fd;
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  fd

let connect ?max_frame addr =
  Wire.ignore_sigpipe ();
  let fd = dial addr in
  {
    cl_addr = addr;
    cl_max_frame = max_frame;
    cl_fd = Some fd;
    cl_reader = Wire.Reader.create ?max_frame ();
    cl_next_id = 0;
    cl_client = None;
    cl_retries = 0;
    cl_backoff = 0.;
    cl_rng = Rng.create 1;
    cl_connected_once = true;
    cl_reconnects = 0;
  }

let connect_persistent ?max_frame ?(retries = 8) ?(backoff = 0.02) ?(seed = 1)
    ~client addr =
  Wire.ignore_sigpipe ();
  {
    cl_addr = addr;
    cl_max_frame = max_frame;
    cl_fd = None;
    cl_reader = Wire.Reader.create ?max_frame ();
    cl_next_id = 0;
    cl_client = Some client;
    cl_retries = retries;
    cl_backoff = backoff;
    cl_rng = Rng.create seed;
    cl_connected_once = false;
    cl_reconnects = 0;
  }

let fd t = match t.cl_fd with Some fd -> fd | None -> raise Closed
let reconnects t = t.cl_reconnects

let drop_conn t =
  (match t.cl_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.cl_fd <- None;
  t.cl_reader <- Wire.Reader.create ?max_frame:t.cl_max_frame ()

let close t = drop_conn t

let send t json = Wire.send_line (fd t) json

(* Exponential backoff with jitter before reconnect attempt [attempt]
   (0-based), the same shape as lib/parallel's retry loop. Jitter draws
   from the client's own RNG so a fleet of clients created from split
   seeds never thunders in lockstep, and stays deterministic per seed. *)
let backoff_delay t attempt =
  let base = t.cl_backoff *. (2. ** float_of_int attempt) in
  let capped = Float.min base 2.0 in
  capped *. (0.5 +. Rng.float t.cl_rng 0.5)

let sleep_pumped ?pump delay =
  let until = Unix.gettimeofday () +. delay in
  let rec loop () =
    if Unix.gettimeofday () < until then begin
      (match pump with Some f -> f () | None -> ());
      (try Unix.sleepf 0.002
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* Wait for the next frame. [?pump] runs while waiting so a single-threaded
   harness can host the daemon it is talking to; without it the fd is
   simply selected on (the daemon is another process). *)
let next_response ?(timeout = 10.) ?pump t =
  let fd = fd t in
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Wire.Reader.next t.cl_reader with
    | `Frame line -> (
      match Wire.response_of_line line with
      | Ok r -> r
      | Error msg -> failwith ("Client.next_response: " ^ msg))
    | `Oversize -> failwith "Client.next_response: oversize response frame"
    | `Pending ->
      if Unix.gettimeofday () > deadline then raise Timeout;
      (match pump with Some f -> f () | None -> ());
      let ready =
        match Unix.select [ fd ] [] [] 0.05 with
        | r, _, _ -> r <> []
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      if ready then begin
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> raise Closed
        | n -> Wire.Reader.feed t.cl_reader (Bytes.sub_string chunk 0 n)
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          ()
        | exception Unix.Unix_error _ -> raise Closed
      end;
      loop ()
  in
  loop ()

let fresh_id t =
  t.cl_next_id <- t.cl_next_id + 1;
  Json.Num (float_of_int t.cl_next_id)

(* Await the response whose ["id"] echoes [id]. Frames with other ids are
   stale answers to a previous incarnation of this connection (the daemon
   flushed them before we reconnected) and are skipped. A no-id error
   frame is connection-level (admission control, oversize) and is
   returned as the answer — there will be no id'd reply behind it. *)
let await_id ?timeout ?pump t id =
  let rec loop () =
    let r = next_response ?timeout ?pump t in
    match r.Wire.r_id with
    | Some rid when rid = id -> r
    | None -> r
    | Some _ -> loop ()
  in
  loop ()

(* Connect (or reconnect) a persistent client, re-running the [hello]
   handshake so the session-layer state on both ends is fresh. *)
let rec ensure_connected ?timeout ?pump t ~attempt =
  match t.cl_fd with
  | Some _ -> ()
  | None -> (
    match dial t.cl_addr with
    | fd -> (
      t.cl_fd <- Some fd;
      t.cl_reader <- Wire.Reader.create ?max_frame:t.cl_max_frame ();
      if t.cl_connected_once then t.cl_reconnects <- t.cl_reconnects + 1;
      t.cl_connected_once <- true;
      let id = fresh_id t in
      match
        send t (Wire.request_to_json ~id ?client:t.cl_client Wire.Hello);
        await_id ?timeout ?pump t id
      with
      | (_ : Wire.response) -> ()
      | exception (Closed | Timeout | Unix.Unix_error _) ->
        drop_conn t;
        retry_connect ?timeout ?pump t ~attempt)
    | exception Unix.Unix_error _ -> retry_connect ?timeout ?pump t ~attempt)

and retry_connect ?timeout ?pump t ~attempt =
  if attempt >= t.cl_retries then
    failwith "Client: cannot reach daemon (retries exhausted)"
  else begin
    sleep_pumped ?pump (backoff_delay t attempt);
    ensure_connected ?timeout ?pump t ~attempt:(attempt + 1)
  end

let rpc_persistent ?timeout ?pump t req =
  let id = fresh_id t in
  let frame = Wire.request_to_json ~id ?client:t.cl_client req in
  let rec go attempt =
    if attempt > t.cl_retries then
      failwith "Client: request failed (retries exhausted)"
    else begin
      ensure_connected ?timeout ?pump t ~attempt:0;
      (* the resend after a lost connection reuses the same id: the
         daemon's reply cache answers it if the first copy executed *)
      match
        send t frame;
        await_id ?timeout ?pump t id
      with
      | r -> r
      | exception (Closed | Timeout | Unix.Unix_error _) ->
        drop_conn t;
        sleep_pumped ?pump (backoff_delay t attempt);
        go (attempt + 1)
    end
  in
  go 0

let rpc ?timeout ?pump t req =
  match t.cl_client with
  | Some _ -> rpc_persistent ?timeout ?pump t req
  | None ->
    let id = fresh_id t in
    send t (Wire.request_to_json ~id req);
    next_response ?timeout ?pump t

let body_str resp name =
  Option.bind (Json.member name resp.Wire.r_body) Json.to_str

let body_int resp name =
  Option.bind (Json.member name resp.Wire.r_body) Json.to_int
