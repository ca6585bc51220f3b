(* Plumbing shared by the workloads: the clock, run context, result
   record, and process and file helpers. *)

module Json = Adpm_trace.Json
module Stats_acc = Adpm_util.Stats_acc
module Wire = Adpm_serve.Wire

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  scale : float;
      (** shrinks fixture sizes and set-up repetitions for the smoke test;
          the deterministic expectations apply at scale 1 only *)
  teamsim : string;  (** the daemon binary *)
  run_dir : string;  (** scratch space inside the working directory *)
}

let window_ns ctx = int_of_float (ctx.seconds *. 1e9)
let full_scale ctx = ctx.scale >= 1.
let scaled ctx ~min n = max min (int_of_float (Float.round (float_of_int n *. ctx.scale)))

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  counts : (string * Json.t) list;
      (** deterministic counts, printed to stderr for the record *)
}

(* A check that did not hold: reported on stderr and counted as a failed
   item by the caller. *)
let complain fmt = Printf.ksprintf (fun m -> prerr_endline ("perf: FAIL " ^ m)) fmt

(* A deterministic count against its recorded value ([Expected]), at
   the recorded seed and full scale: 1 on a mismatch, else 0. *)
let check_expected ctx name got =
  match Expected.find ctx.workload name with
  | Some want when ctx.seed = Expected.seed && full_scale ctx ->
    if Json.to_string want = Json.to_string got then 0
    else begin
      complain "%s: %s differs from the recorded %s" name (Json.to_string got)
        (Json.to_string want);
      1
    end
  | _ -> 0

(* Seeds for every generated input derive from the one --seed. *)
let derive seed a b = ((seed * 1_000_003) + (a * 7_919) + b) land 0x3fff_ffff

(* A per-item series in item order, in a flat growable array. In the
   simulation workloads the benchmark process is the one whose peak RSS
   is reported, so they preallocate room for every item a run makes:
   their bookkeeping then does not grow with the item count. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; zero : 'a }

  let create ?(capacity = 1024) zero = { data = Array.make capacity zero; len = 0; zero }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) v.zero in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len
  let to_array v = Array.sub v.data 0 v.len
end

(* {2 Host speed}

   A virtual CPU whose host shares its cores and caches with other
   machines drifts in speed, by up to half within seconds on the 2 vCPU
   Xeon machine of the README's baseline. So every timed stretch is
   bracketed by a probe: a fixed piece of benchmark-owned work that
   allocates, hashes and sorts as the program does, and so slows with it.
   The probe runs on the CPU the work runs on ([run.sh] pins both). A
   stretch's times are scaled by [Probe.reference_ns] over the probe's
   time around it: each reported time is what it would have been at the
   reference speed. The probe runs under fixed GC settings, so a change
   to the program's settings does not move it. *)
module Probe = struct
  let kernel () =
    let h = Hashtbl.create 1024 and acc = ref 0. in
    for i = 0 to 6_000 do
      let k = i * 7_919 land 1_023 in
      let v = Option.value ~default:[] (Hashtbl.find_opt h k) in
      let x = float_of_int i *. 1.0001 in
      Hashtbl.replace h k (if List.length v > 8 then [ x ] else x :: v);
      acc := !acc +. sqrt x
    done;
    ignore (List.sort compare (List.init 1_000 (fun i -> (i * 7_919) mod 3_001)));
    ignore (Sys.opaque_identity !acc)

  let kernels = 6

  (* [kernels] kernels on a quiet 2 vCPU Xeon virtual machine, where the
     baseline in README.md was measured. *)
  let reference_ns = 3.5e6

  let with_fixed_gc f =
    let saved = Gc.get () in
    if saved.Gc.minor_heap_size = 262_144 && saved.Gc.space_overhead = 120 then f ()
    else begin
      Gc.set { saved with Gc.minor_heap_size = 262_144; space_overhead = 120 };
      Fun.protect ~finally:(fun () -> Gc.set saved) f
    end

  let sample () =
    with_fixed_gc (fun () ->
        let t0 = now_ns () in
        for _ = 1 to kernels do
          kernel ()
        done;
        float_of_int (now_ns () - t0))
end

(* Probes taken one after another; [mark] gives the factor that scales
   times measured since the previous mark to the reference speed. *)
module Pace = struct
  type t = { mutable last : float }

  let start () = { last = Probe.sample () }

  let mark p =
    let now = Probe.sample () in
    let factor = Probe.reference_ns /. ((p.last +. now) /. 2.) in
    p.last <- now;
    factor
end

(* Long loops take a probe about this often. *)
let slice_ns = 100_000_000

(* A run's items, in order, are cut into groups: at most 12, and at
   least 100 items each where the run has that many (one group
   otherwise). A metric is the median over groups, so a stretch the
   probe tracked badly moves only the groups it falls in. *)
let group_bounds n =
  let groups = max 1 (min 12 (n / 100)) in
  List.init groups (fun g -> (g * n / groups, (g + 1) * n / groups))

let median_over_groups n f =
  let acc = Stats_acc.create () in
  List.iter (fun (a, b) -> Stats_acc.add acc (f a b)) (group_bounds n);
  Stats_acc.median acc

(* Operations per second. [busy.(k)] is the scaled time item k took, in
   ns, and [work.(k)] its operations. *)
let median_rate ~busy ~work =
  median_over_groups (Array.length busy) (fun a b ->
      let w = ref 0 and t = ref 0. in
      for k = a to b - 1 do
        w := !w + work.(k);
        t := !t +. busy.(k)
      done;
      float_of_int !w /. (!t /. 1e9))

(* Quantile [q] of per-item values in nanoseconds, in ms. *)
let median_quantile_ms values q =
  median_over_groups (Array.length values) (fun a b ->
      let acc = Stats_acc.create () in
      for k = a to b - 1 do
        Stats_acc.add acc values.(k)
      done;
      Stats_acc.quantile acc q /. 1e6)

(* Set-up is timed in two bursts of repetitions, one before the measured
   window and one after it, each at least 5 repetitions and a second
   long, each repetition scaled by the probes around it; [setup_s] is the
   median over both bursts. [with_setup ctx f measure] runs [measure] on
   the first burst's last result; every other result goes to [discard].
   A traced run, which does not report [setup_s], and a run at reduced
   scale set up once. *)
let with_setup ?(discard = ignore) ctx f measure =
  let times = Stats_acc.create () in
  let repeat = full_scale ctx && not ctx.traced in
  let burst () =
    let first = now_ns () in
    let pace = Pace.start () in
    let rec go k =
      let t0 = now_ns () in
      let r = f () in
      let t1 = now_ns () in
      Stats_acc.add times (secs (t1 - t0) *. Pace.mark pace);
      if repeat && (k < 5 || t1 - first < 1_000_000_000) then begin
        discard r;
        go (k + 1)
      end
      else r
    in
    go 1
  in
  let result = measure (burst ()) in
  if repeat then discard (burst ());
  (result, Stats_acc.median times)

(* An in-process daemon configured as [teamsim serve --journal-dir]
   configures it, listening on [run_dir/<name>.sock]. *)
let in_process_daemon ctx ~name ~journal_dir =
  let module D = Adpm_serve.Daemon in
  D.create
    {
      (D.default_config
         ~addr:(D.Unix_path (Filename.concat ctx.run_dir (name ^ ".sock")))
         ~scenarios:Adpm_scenarios.Registry.builtin)
      with
      D.dc_resolve = Adpm_scenarios.Registry.resolve_result;
      dc_journal_dir = Some journal_dir;
    }

(* {2 Processes and files} *)

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024. | None -> acc)
          | [] -> acc)
        | _ -> acc)
      nan
      (String.split_on_char '\n' text)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let mkdir path = Unix.mkdir path 0o700

let fresh_dir ctx name =
  let d = Filename.concat ctx.run_dir name in
  rm_rf d;
  mkdir d;
  d

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc data)

(* A teamsimd child: [serve] on a unix socket with a journal directory,
   its output captured in [log]. *)
type daemon = { pid : int; sock : string; log : string }

(* Children not yet reaped, so a run that fails half way still stops
   every process it started ([reap_all]). *)
let children = ref []

let reap_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let spawn_daemon ctx ~name ~journal_dir =
  let sock = Filename.concat ctx.run_dir (name ^ ".sock") in
  let log = Filename.concat ctx.run_dir (name ^ ".log") in
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let pid =
    Unix.create_process ctx.teamsim
      [| ctx.teamsim; "serve"; "--socket"; sock; "--journal-dir"; journal_dir |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  children := pid :: !children;
  { pid; sock; log }

(* A client connection that keeps the raw response lines: the churn
   workload counts their bytes and compares them across runs. *)
type conn = { fd : Unix.file_descr; reader : Wire.Reader.t; chunk : Bytes.t }

(* The daemon binds before it recovers its journals, so a connect can
   succeed long before [hello] is answered. *)
let connect d =
  let deadline = now_ns () + 30_000_000_000 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_close_on_exec fd;
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> { fd; reader = Wire.Reader.create (); chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now_ns () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Read whatever is available; [Some line] once a whole frame is in. *)
let read_frame c =
  let frame () =
    match Wire.Reader.next c.reader with
    | `Frame line -> Some line
    | `Pending -> None
    | `Oversize -> failwith "oversize response frame"
  in
  match frame () with
  | Some _ as f -> f
  | None -> (
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 -> failwith "daemon closed the connection"
    | n ->
      Wire.Reader.feed c.reader (Bytes.sub_string c.chunk 0 n);
      frame ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> None)

let await c =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    match read_frame c with
    | Some line -> line
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then failwith "no response within 60 s";
      (match Unix.select [ c.fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _ -> ());
      go ()
  in
  go ()

let rpc c req =
  Wire.write_all c.fd (Json.to_string (Wire.request_to_json req) ^ "\n");
  match Wire.response_of_line (await c) with
  | Ok r -> r
  | Error msg -> failwith ("bad response: " ^ msg)

let shutdown_daemon d c =
  (try ignore (rpc c Wire.Shutdown : Wire.response)
   with Failure _ | Unix.Unix_error _ -> Unix.kill d.pid Sys.sigkill);
  close_conn c;
  let status = try Some (snd (Unix.waitpid [] d.pid)) with Unix.Unix_error _ -> None in
  children := List.filter (( <> ) d.pid) !children;
  status = Some (Unix.WEXITED 0)

(* Spawn a daemon, connect [conns] clients and [hello] on each; the wall
   time from the spawn to the last answer is what a restart costs. *)
let start_daemon ctx ~name ~journal_dir ~conns =
  let t0 = now_ns () in
  let d = spawn_daemon ctx ~name ~journal_dir in
  let cs = List.init conns (fun _ -> connect d) in
  let hellos = List.map (fun c -> rpc c Wire.Hello) cs in
  (d, cs, hellos, now_ns () - t0)

let body_str (r : Wire.response) key = Option.bind (Json.member key r.Wire.r_body) Json.to_str
let body_int (r : Wire.response) key = Option.bind (Json.member key r.Wire.r_body) Json.to_int

let daemon_log d =
  match In_channel.with_open_text d.log In_channel.input_all with
  | s -> s
  | exception Sys_error _ -> ""
