(** Concurrent fsync for teamsimd journals.

    A pool of at most four system threads ([threads.posix], never
    [Domain.spawn], so a process hosting a pool may still [Unix.fork])
    runs the fsyncs submitted to it concurrently. Several fsyncs in
    flight at once let the filesystem fold them into one journal
    commit, where one blocking fsync per file pays a commit each.

    Every submission gets a sequence number. The pool publishes a
    durable watermark: {!wait}[ t n] returns once every submission up to
    [n] has finished. Jobs on one target never overlap: a job waits while
    another fsync of the same target runs, and jobs queued on one target
    are folded into one fsync (every write they cover was made before
    the fsync starts). So an fsync error reaches the earliest submission
    whose data it may concern, never a later one alone.

    A target must stay open until its jobs finish: close a submitted fd
    only after {!quiesce}. *)

type target =
  | File of Unix.file_descr
  | Dir of string
      (** a directory path: opened, fsync'd and closed by the worker,
          making entries created or renamed in it durable *)

val fsync : target -> unit
(** Fsync a target in place: the job a worker runs. A directory fsync
    the filesystem does not support ([EINVAL]) does nothing.
    @raise Unix.Unix_error on failure. *)

type t

val create : unit -> t
(** A pool with no threads yet: a worker starts when a job finds none
    idle, up to four. *)

val submit : t -> target -> int
(** Queue one fsync; returns its sequence number (1, 2, ...). *)

val submitted : t -> int
(** The last sequence number handed out (0 before the first). *)

val wait : t -> int -> unit
(** Block until every submission numbered up to [n] has finished. *)

val quiesce : t -> Unix.file_descr -> unit
(** Block until no job on [File fd] is queued or running. *)

val take_failures : t -> upto:int -> (int * string) list
(** Failed submissions numbered up to [upto], oldest first, with their
    error messages; each failure is reported once. *)

val stop : t -> unit
(** Finish every queued job, then join the workers. Idempotent. *)
