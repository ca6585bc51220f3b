module Json = Adpm_trace.Json

(* {2 Lockfile} *)

type lock = { lk_path : string; mutable lk_held : bool }

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM: exists, not ours *)

(* O_EXCL creation with the owner's pid inside, so a lock left behind by
   a SIGKILLed daemon is detected as stale (its pid is gone) and broken,
   while a second daemon pointed at a live daemon's directory refuses.
   fcntl-style locks are useless here: they do not conflict within one
   process, and tests host two daemons in one process. *)
let acquire ~dir =
  ensure_dir dir;
  let path = Filename.concat dir "teamsimd.lock" in
  let try_create () =
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
    | fd ->
      let line = string_of_int (Unix.getpid ()) ^ "\n" in
      let _ = Unix.write_substring fd line 0 (String.length line) in
      Unix.close fd;
      true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  in
  let owner () =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> int_of_string_opt (String.trim s)
    | exception Sys_error _ -> None
  in
  let rec go attempts =
    if try_create () then Ok { lk_path = path; lk_held = true }
    else
      match owner () with
      | Some pid when pid_alive pid ->
        Error
          (Printf.sprintf
             "journal dir %s is locked by a running daemon (pid %d)" dir pid)
      | _ when attempts > 0 ->
        (* stale (dead pid or unreadable): break it and retry *)
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        go (attempts - 1)
      | _ -> Error (Printf.sprintf "cannot break stale lock %s" path)
  in
  match go 2 with
  | v -> v
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot lock journal dir %s: %s" dir
         (Unix.error_message err))

let release lock =
  if lock.lk_held then begin
    lock.lk_held <- false;
    try Unix.unlink lock.lk_path with Unix.Unix_error _ -> ()
  end

(* {2 Per-session journals} *)

let suffix = ".journal.jsonl"
let path ~dir ~sid = Filename.concat dir (sid ^ suffix)

type t = { j_path : string; j_dir : string; mutable j_fd : Unix.file_descr option }

let fd_error fn err =
  Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))

let write_all fd line =
  let s = line ^ "\n" in
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | written -> off := !off + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Submitted to [sync] (the caller then waits on its watermark), or
   fsync'd in place. *)
let durable ?sync target =
  match sync with
  | Some pool -> ignore (Sync_pool.submit pool target : int)
  | None -> Sync_pool.fsync target


let close ?sync t =
  match t.j_fd with
  | None -> ()
  | Some fd ->
    t.j_fd <- None;
    Option.iter (fun pool -> Sync_pool.quiesce pool fd) sync;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let remove ?sync t =
  close ?sync t;
  try Unix.unlink t.j_path with Unix.Unix_error _ -> ()

let create ?sync ~dir ~sid header =
  ensure_dir dir;
  let p = path ~dir ~sid in
  match
    Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  with
  | fd -> (
    let t = { j_path = p; j_dir = dir; j_fd = Some fd } in
    (* a new entry is durable only once its directory is fsync'd *)
    match
      write_all fd (Json.to_string header);
      durable ?sync (Sync_pool.File fd);
      durable ?sync (Sync_pool.Dir dir)
    with
    | () -> Ok t
    | exception Unix.Unix_error (err, fn, _) ->
      remove ?sync t;
      fd_error fn err)
  | exception Unix.Unix_error (err, fn, _) -> fd_error fn err

(* A failing journal is dead: later writes must not pretend. *)
let write_entry ?sync t entry =
  match t.j_fd with
  | None -> Error (Printf.sprintf "journal %s is closed" t.j_path)
  | Some fd -> (
    match
      write_all fd (Json.to_string entry);
      durable ?sync (Sync_pool.File fd)
    with
    | () -> Ok ()
    | exception Unix.Unix_error (err, fn, _) ->
      close ?sync t;
      fd_error fn err)

let append t entry = write_entry t entry
let write ~sync t entry = write_entry ~sync t entry

let sync pool t =
  match t.j_fd with
  | None -> Error (Printf.sprintf "journal %s is closed" t.j_path)
  | Some fd -> Ok (durable ~sync:pool (Sync_pool.File fd))

(* Repair: replace the whole journal with [header] and [entries] via
   write-to-temp + atomic rename, so a crash mid-rewrite leaves either
   the old journal or the new one, never a torn file. The temp file is
   fsync'd before the rename, and the rename is durable once the
   directory is. *)
let rewrite ?sync ?(entries = []) t header =
  let tmp = t.j_path ^ ".tmp" in
  match
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    (match
       List.iter (fun j -> write_all fd (Json.to_string j)) (header :: entries);
       Unix.fsync fd
     with
    | () -> Unix.close fd
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
    Unix.rename tmp t.j_path;
    close ?sync t;
    t.j_fd <- Some (Unix.openfile t.j_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644);
    durable ?sync (Sync_pool.Dir t.j_dir)
  with
  | () -> Ok ()
  | exception Unix.Unix_error (err, fn, _) ->
    (try Unix.unlink tmp with Unix.Unix_error _ -> ());
    fd_error fn err

(* Reopen a scanned journal for appending (recovery path). *)
let reopen ~dir ~sid =
  let p = path ~dir ~sid in
  match Unix.openfile p [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 with
  | fd -> Ok { j_path = p; j_dir = dir; j_fd = Some fd }
  | exception Unix.Unix_error (err, fn, _) -> fd_error fn err

(* {2 Startup scan} *)

type scanned = {
  sc_sid : string;
  sc_path : string;
  sc_header : Json.t;
  sc_entries : Json.t list;
  sc_dropped : int;  (** trailing lines dropped: truncated or unparseable *)
}

let quarantine p =
  let dst = p ^ ".corrupt" in
  (try Unix.unlink dst with Unix.Unix_error _ -> ());
  try Unix.rename p dst with Unix.Unix_error _ -> (
    try Unix.unlink p with Unix.Unix_error _ -> ())

(* Split raw contents into complete lines; a final unterminated fragment
   is a torn append from a crash and is never a record. *)
let complete_lines contents =
  let n = String.length contents in
  let rec go acc start =
    if start >= n then (List.rev acc, 0)
    else
      match String.index_from_opt contents start '\n' with
      | Some i -> go (String.sub contents start (i - start) :: acc) (i + 1)
      | None -> (List.rev acc, 1)
  in
  go [] 0

let scan_file p =
  let sid =
    let base = Filename.basename p in
    String.sub base 0 (String.length base - String.length suffix)
  in
  match In_channel.with_open_bin p In_channel.input_all with
  | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" p msg)
  | contents -> (
    let lines, torn = complete_lines contents in
    match lines with
    | [] -> Error (Printf.sprintf "%s: empty journal" p)
    | header_line :: entry_lines -> (
      match Json.parse header_line with
      | Error msg -> Error (Printf.sprintf "%s: bad header: %s" p msg)
      | Ok header ->
        (* parse entries up to the first corrupt line; everything after a
           corrupt record is untrustworthy and dropped with it *)
        let rec take acc = function
          | [] -> (List.rev acc, 0)
          | "" :: rest -> take acc rest
          | line :: rest -> (
            match Json.parse line with
            | Ok j -> take (j :: acc) rest
            | Error _ -> (List.rev acc, List.length rest + 1))
        in
        let entries, bad = take [] entry_lines in
        Ok
          {
            sc_sid = sid;
            sc_path = p;
            sc_header = header;
            sc_entries = entries;
            sc_dropped = bad + torn;
          }))

let scan ~dir =
  let files =
    match Sys.readdir dir with
    | names ->
      Array.to_list names
      |> List.filter (fun n ->
             String.length n > String.length suffix
             && Filename.check_suffix n suffix)
      |> List.sort compare
      |> List.map (Filename.concat dir)
    | exception Sys_error _ -> []
  in
  List.fold_left
    (fun (ok, warnings) p ->
      match scan_file p with
      | Ok s -> (s :: ok, warnings)
      | Error msg ->
        (* an unreadable journal must never wedge startup: set it aside
           and keep recovering the others *)
        quarantine p;
        (ok, (msg ^ " (quarantined)") :: warnings))
    ([], []) files
  |> fun (ok, warnings) -> (List.rev ok, List.rev warnings)
