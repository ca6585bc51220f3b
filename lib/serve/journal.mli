(** Write-ahead command journal for teamsimd sessions.

    One JSONL file per session under the daemon's [--journal-dir]:
    line 1 is a {!Session.header_fields} object (marker
    ["teamsimd_journal"]) describing the session when the file was
    created or last rewritten, followed by one entry object per accepted
    mutating command since. A line is written before the command it
    records executes, and made durable (fsync'd, with the directory
    entry for a new or renamed file) before any reply that follows it
    leaves the daemon. So after a crash the journal holds every command
    whose effects a client could have seen; the only thing ever lost is
    a command whose reply was never sent. Writes that name a
    {!Sync_pool} submit their fsyncs to it, and the caller waits on the
    pool's watermark; the others fsync in place.

    Tail corruption (a torn final line from a crash mid-append, or any
    unparseable record) is dropped at the last valid entry; a journal
    whose header itself is unreadable is renamed [*.corrupt] and
    reported as a warning — recovery never wedges startup.

    The directory is guarded by a pid lockfile so two daemons cannot
    interleave writes; a lock left by a SIGKILLed daemon is detected as
    stale (its pid is gone) and broken automatically. *)

module Json = Adpm_trace.Json

(** {2 Directory lock} *)

type lock

val acquire : dir:string -> (lock, string) result
(** Create [dir/teamsimd.lock] with O_EXCL, our pid inside. [Error] if a
    live daemon holds it; a stale lock (dead pid) is broken and retried
    once. *)

val release : lock -> unit
(** Unlink the lockfile. Idempotent. *)

(** {2 Per-session journal files} *)

type t

val create :
  ?sync:Sync_pool.t -> dir:string -> sid:string -> Json.t -> (t, string) result
(** Create (truncating any leftover), write the header line, and fsync
    the file and the directory: in place, or submitted to [sync]. *)

val reopen : dir:string -> sid:string -> (t, string) result
(** Open an existing journal for appending (the recovery path, after
    {!scan}). *)

val append : t -> Json.t -> (unit, string) result
(** Write + fsync one entry line. On failure the journal is marked dead:
    later appends keep failing rather than silently losing durability. *)

val write : sync:Sync_pool.t -> t -> Json.t -> (unit, string) result
(** {!append} with the fsync submitted to [sync] instead of made in
    place. *)

val sync : Sync_pool.t -> t -> (unit, string) result
(** Submit an fsync of everything written to the journal so far. *)

val rewrite :
  ?sync:Sync_pool.t ->
  ?entries:Json.t list ->
  t ->
  Json.t ->
  (unit, string) result
(** Repair: atomically replace the whole file with the header line and
    [entries] (default none) after it (write + fsync a temp file, rename
    it over the journal, fsync the directory — in place, or submitted to
    [sync]), then reopen for appending. A crash mid-rewrite leaves
    either the old journal or the new one. *)

val close : ?sync:Sync_pool.t -> t -> unit
(** Close the file, once no fsync submitted to [sync] still uses it. *)

val remove : ?sync:Sync_pool.t -> t -> unit
(** [close] then unlink — for sessions that ended cleanly. *)

(** {2 Startup scan} *)

val quarantine : string -> unit
(** Rename a damaged journal to [<path>.corrupt] (best effort) so the
    next startup does not trip over it again. *)

type scanned = {
  sc_sid : string;
  sc_path : string;
  sc_header : Json.t;
  sc_entries : Json.t list;
  sc_dropped : int;  (** trailing lines dropped: truncated or unparseable *)
}

val scan : dir:string -> scanned list * string list
(** Parse every [*.journal.jsonl] in [dir] (sorted by name). Journals
    with an unreadable header are renamed [*.corrupt] and reported in
    the warning list; per-file tail damage is absorbed into
    [sc_dropped]. Never raises. *)
