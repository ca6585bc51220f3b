type target = File of Unix.file_descr | Dir of string
type job = { seq : int; target : target }

type t = {
  m : Mutex.t;
  work : Condition.t;  (* a job was queued, a target came free, or stop *)
  taken : Condition.t;  (* a worker took a job *)
  progress : Condition.t;  (* a job finished *)
  mutable queue : job list;  (* oldest first *)
  mutable running : job list;
  mutable idle : int;  (* workers waiting for a job *)
  mutable next : int;
  mutable failures : (int * string) list;  (* newest first *)
  mutable stopping : bool;
  mutable workers : Thread.t list;
}

let pool_size = 4

let fsync = function
  | File fd -> Unix.fsync fd
  | Dir path -> (
    let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    match Unix.fsync fd with
    | () -> Unix.close fd
    | exception Unix.Unix_error (Unix.EINVAL, _, _) -> Unix.close fd
    | exception e ->
      Unix.close fd;
      raise e)

let describe = function
  | File _ -> "journal"
  | Dir path -> path

let run target =
  match fsync target with
  | () -> None
  | exception Unix.Unix_error (err, fn, _) ->
    Some (Printf.sprintf "%s %s: %s" fn (describe target) (Unix.error_message err))
  | exception e -> Some (Printexc.to_string e)

(* The oldest queued job whose target is idle, with every other job
   queued on that target: one fsync covers them all. *)
let take t =
  let busy target = List.exists (fun j -> j.target = target) t.running in
  match List.find_opt (fun j -> not (busy j.target)) t.queue with
  | None -> None
  | Some first ->
    let batch, rest = List.partition (fun j -> j.target = first.target) t.queue in
    t.queue <- rest;
    t.running <- batch @ t.running;
    Condition.broadcast t.taken;
    Some (first.target, batch)

let rec worker t =
  Mutex.lock t.m;
  let rec next () =
    match take t with
    | Some _ as b -> b
    | None when t.stopping && t.queue = [] -> None
    | None ->
      t.idle <- t.idle + 1;
      Condition.wait t.work t.m;
      t.idle <- t.idle - 1;
      next ()
  in
  match next () with
  | None -> Mutex.unlock t.m
  | Some (target, batch) ->
    Mutex.unlock t.m;
    let failure = run target in
    Mutex.lock t.m;
    t.running <- List.filter (fun j -> not (List.memq j batch)) t.running;
    Option.iter
      (fun msg -> t.failures <- List.map (fun j -> (j.seq, msg)) batch @ t.failures)
      failure;
    Condition.broadcast t.progress;
    (* the target came free: a job queued behind it may start *)
    if t.queue <> [] then Condition.signal t.work;
    Mutex.unlock t.m;
    worker t

let create () =
  {
    m = Mutex.create ();
    work = Condition.create ();
    taken = Condition.create ();
    progress = Condition.create ();
    queue = [];
    running = [];
    idle = 0;
    next = 0;
    failures = [];
    stopping = false;
    workers = [];
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* A worker can take a job only once this thread releases the runtime
   lock, and a thread running OCaml code releases it only when it blocks.
   So when a worker is idle, [submit] blocks until the worker has taken
   the job: its fsync then runs while the caller goes on. *)
let submit t target =
  locked t (fun () ->
      if t.idle = 0 && List.length t.workers < pool_size then
        t.workers <- Thread.create worker t :: t.workers;
      t.next <- t.next + 1;
      let job = { seq = t.next; target } in
      t.queue <- t.queue @ [ job ];
      Condition.signal t.work;
      let startable () =
        t.idle > 0 && not (List.exists (fun j -> j.target = target) t.running)
      in
      while List.memq job t.queue && startable () do
        Condition.wait t.taken t.m
      done;
      job.seq)

let submitted t = locked t (fun () -> t.next)

let wait_until t ready =
  locked t (fun () ->
      while not (ready ()) do
        Condition.wait t.progress t.m
      done)

let wait t n =
  let pending j = j.seq <= n in
  wait_until t (fun () ->
      not (List.exists pending t.queue || List.exists pending t.running))

let quiesce t fd =
  let on_fd j = j.target = File fd in
  wait_until t (fun () ->
      not (List.exists on_fd t.queue || List.exists on_fd t.running))

let take_failures t ~upto =
  locked t (fun () ->
      let mine, later = List.partition (fun (seq, _) -> seq <= upto) t.failures in
      t.failures <- later;
      List.rev mine)

let stop t =
  let workers =
    locked t (fun () ->
        t.stopping <- true;
        Condition.broadcast t.work;
        let w = t.workers in
        t.workers <- [];
        w)
  in
  List.iter Thread.join workers
