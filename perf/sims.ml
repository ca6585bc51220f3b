(* The three simulation workloads: batches of [Engine.run] calls, one
   after another in this process (no domain pool).

   Items cycle through a fixed block of cells, so every run of a workload
   sees the same scenario mix however long it lasts; each item's
   simulation seed derives from --seed and the item's position. *)

open Adpm_core
open Adpm_teamsim
open Common
module Event = Adpm_trace.Event
module Sink = Adpm_trace.Sink
module Tracer = Adpm_trace.Tracer

type cell = { scenario : Scenario.t; cfg : Config.t }

let gen_spec ~n ~p g =
  Printf.sprintf "gen:n=%d,k=3,seed=%d,topology=random-%g,coupling=0.25" n g p

(* (scenario reference, items per block), the mode, and config tuning.
   The block ratios follow the cell sizes the workloads were designed
   around: 3000 sensor + 1400 receiver ADPM runs, 400 n=8 + 110 n=16
   generated runs. Conventional runs are 20 sensor + 5 receiver: a
   conventional receiver run takes about twice as long per operation as
   a sensor run, so with fewer receivers (the design's 1000 + 120) p90
   falls in the gap between the two and flips from run to run. *)
let design ctx =
  match ctx.workload with
  | "sim-adpm" -> (Dpm.Adpm, Fun.id, [ ("sensor", 15); ("receiver", 7) ])
  | "sim-conventional" ->
    (Dpm.Conventional, Fun.id, [ ("sensor", 20); ("receiver", 5) ])
  | "sim-gen-large" ->
    (* four generated networks of each size per run, so one unusually
       easy or hard network does not move the whole run *)
    ( Dpm.Adpm,
      (fun c -> { c with Config.value_policy = Config.Headroom; latency = 2 }),
      List.concat_map
        (fun j ->
          let g = derive ctx.seed 0 j mod 1_000_000 in
          [ (gen_spec ~n:8 ~p:0.4 g, 7); (gen_spec ~n:16 ~p:0.2 g, 2) ])
        [ 0; 1; 2; 3 ] )
  | w -> invalid_arg ("Sims.design: " ^ w)

let item_seed ctx i = derive ctx.seed 1 i

(* Set-up: resolve every scenario reference, then one untimed warm-up
   simulation per cell. *)
let setup ctx =
  let mode, tune, block = design ctx in
  let distinct =
    List.mapi
      (fun j (name, count) ->
        let cell =
          {
            scenario = Adpm_scenarios.Registry.resolve name;
            cfg = tune (Config.default ~mode ~seed:0);
          }
        in
        ignore
          (Engine.run (Config.with_seed cell.cfg j) cell.scenario
            : Engine.outcome);
        (cell, count))
      block
  in
  Array.of_list
    (List.concat_map (fun (cell, count) -> List.init count (fun _ -> cell)) distinct)

(* A cheap digest of everything a summary reports, per-op profile
   included, so runs can be compared item by item. *)
let mix h x = ((h * 1_000_003) lxor x) land max_int

let digest (s : Metrics.run_summary) =
  List.fold_left
    (fun h (r : Metrics.op_record) ->
      List.fold_left mix h
        [
          r.Metrics.m_index;
          r.m_evaluations;
          r.m_new_violations;
          r.m_known_violations;
          Bool.to_int r.m_spin;
          Hashtbl.hash r.m_kind;
          Hashtbl.hash r.m_designer;
        ])
    (List.fold_left mix 17
       [ s.Metrics.s_operations; s.s_evaluations; s.s_spins; Bool.to_int s.s_completed ])
    s.s_profile

(* The summary agrees with its own per-op profile. *)
let consistent (s : Metrics.run_summary) =
  let ops = List.filter (fun r -> r.Metrics.m_kind <> "setup") s.s_profile in
  List.length ops = s.s_operations
  && List.length (List.filter (fun r -> r.Metrics.m_spin) ops) = s.s_spins
  && s.s_operations > 0

type totals = {
  mutable items : int;
  mutable operations : int;
  mutable evaluations : int;
  mutable completed : int;
  mutable spins : int;
}

let totals () =
  { items = 0; operations = 0; evaluations = 0; completed = 0; spins = 0 }

let add_totals t (s : Metrics.run_summary) =
  t.items <- t.items + 1;
  t.operations <- t.operations + s.Metrics.s_operations;
  t.evaluations <- t.evaluations + s.s_evaluations;
  t.completed <- t.completed + Bool.to_int s.s_completed;
  t.spins <- t.spins + s.s_spins

let totals_json t =
  Json.Obj
    [
      ("items", Json.Num (float_of_int t.items));
      ("operations", Json.Num (float_of_int t.operations));
      ("evaluations", Json.Num (float_of_int t.evaluations));
      ("completed", Json.Num (float_of_int t.completed));
      ("spins", Json.Num (float_of_int t.spins));
    ]

(* What the trace sink counts besides the gap attribution. *)
type trace_counts = {
  mutable turns : int;
  mutable idle_turns : int;
  mutable turn_pending : bool;  (* a turn with no operation yet *)
  mutable ops : int;
  mutable choose_evals : int;
  mutable propagations : int;
  mutable incremental : int;
  mutable revisions : int;
  mutable notifications : int;
  mutable deliveries : int;
  mutable finished_ops : int;  (* [Run_finished.operations] *)
  mutable finished_evals : int;  (* [Run_finished] N_T incl. set-up *)
}

let trace_counts () =
  {
    turns = 0;
    idle_turns = 0;
    turn_pending = false;
    ops = 0;
    choose_evals = 0;
    propagations = 0;
    incremental = 0;
    revisions = 0;
    notifications = 0;
    deliveries = 0;
    finished_ops = 0;
    finished_evals = 0;
  }

let close_turn c =
  if c.turn_pending then c.idle_turns <- c.idle_turns + 1;
  c.turn_pending <- false

(* The bench-owned sink: stamp on arrival first, then classify. *)
let sink attrib c =
  {
    Sink.write =
      (fun (e : Event.stamped) ->
        let now = now_ns () in
        let kind =
          match e.Event.event with
          | Event.Turn_started _ ->
            close_turn c;
            c.turns <- c.turns + 1;
            c.turn_pending <- true;
            Attrib.Turn_started
          | Event.Designer_decision _ -> Attrib.Designer_decision
          | Event.Op_submitted { choose_evaluations; _ } ->
            c.turn_pending <- false;
            c.ops <- c.ops + 1;
            c.choose_evals <- c.choose_evals + choose_evaluations;
            Attrib.Op_submitted
          | Event.Op_executed _ -> Attrib.Op_executed
          | Event.Propagation_started _ -> Attrib.Propagation_started
          | Event.Propagation_finished { engine; revisions; _ } ->
            c.propagations <- c.propagations + 1;
            if engine = "incremental" then c.incremental <- c.incremental + 1;
            c.revisions <- c.revisions + revisions;
            Attrib.Propagation_finished
          | Event.Constraint_status_changed _ -> Attrib.Status_changed
          | Event.Notification_pushed _ ->
            c.notifications <- c.notifications + 1;
            Attrib.Notification_pushed
          | Event.Notification_delivered _ ->
            c.deliveries <- c.deliveries + 1;
            Attrib.Other
          | Event.Run_finished { operations; evaluations; setup_evaluations; _ }
            ->
            close_turn c;
            c.finished_ops <- c.finished_ops + operations;
            c.finished_evals <- c.finished_evals + evaluations + setup_evaluations;
            Attrib.Other
          | _ -> Attrib.Other
        in
        Attrib.event attrib kind now);
    close = ignore;
  }

(* One simulation and the wall time of its [Engine.run] call; [None]
   when it raised or its summary contradicts itself. With [attrib] the
   call is also the span the gap attribution partitions. *)
let simulate ?tracer ?attrib cells ctx i =
  let cell = cells.(i mod Array.length cells) in
  let cfg = Config.with_seed cell.cfg (item_seed ctx i) in
  let t0 = now_ns () in
  Option.iter (fun a -> Attrib.start a t0) attrib;
  let r =
    match Engine.run ?tracer cfg cell.scenario with
    | o -> Ok o.Engine.o_summary
    | exception e -> Error e
  in
  let t1 = now_ns () in
  Option.iter (fun a -> Attrib.stop a t1) attrib;
  let summary =
    match r with
    | Ok s when consistent s -> Some s
    | Ok s ->
      complain "item %d: summary contradicts its profile: %s" i
        (Metrics.summary_line s);
      None
    | Error e ->
      complain "item %d raised %s" i (Printexc.to_string e);
      None
  in
  (summary, t1 - t0)

type pass = {
  digests : int array;  (* -1 for a failed item *)
  ops : int array;  (* design operations each item simulated *)
  busy : float array;  (* each item's scaled time, ns *)
  per_op : float array;  (* each completed item's scaled time per operation, ns *)
  wall : int;  (* sum of the items' [Engine.run] times, ns *)
  peak : float;  (* this process's peak RSS after the last item, MB *)
  failed : int;
  prefix : totals;  (* the first block *)
}

(* Untraced: run items from 0 until [budget] ns have passed (at least
   one item), or exactly [items] items when given. A probe closes each
   slice of items. *)
let untraced cells ctx ~budget ?items () =
  let capacity = 1 lsl 16 in
  let digests = Vec.create ~capacity 0 and ops = Vec.create ~capacity 0 in
  let raw = Vec.create ~capacity 0 and factors = Vec.create ~capacity 0. in
  let wall = ref 0 and failed = ref 0 and prefix = totals () in
  let block = Array.length cells in
  let deadline = now_ns () + budget in
  let more () =
    let i = Vec.length digests in
    match items with Some n -> i < n | None -> i = 0 || now_ns () < deadline
  in
  let pace = Pace.start () in
  let slice_start = ref (now_ns ()) in
  let close_slice () =
    let f = Pace.mark pace in
    for _ = Vec.length factors to Vec.length raw - 1 do
      Vec.push factors f
    done;
    slice_start := now_ns ()
  in
  while more () do
    let i = Vec.length digests in
    let r, ns = simulate cells ctx i in
    wall := !wall + ns;
    Vec.push raw ns;
    (match r with
    | Some s ->
      Vec.push ops s.Metrics.s_operations;
      Vec.push digests (digest s);
      if i < block then add_totals prefix s
    | None ->
      incr failed;
      Vec.push ops 0;
      Vec.push digests (-1));
    if now_ns () - !slice_start >= slice_ns then close_slice ()
  done;
  if Vec.length factors < Vec.length raw then close_slice ();
  let peak = vm_hwm_mb "self" in
  let ops = Vec.to_array ops and raw = Vec.to_array raw and factors = Vec.to_array factors in
  let busy = Array.mapi (fun k ns -> float_of_int ns *. factors.(k)) raw in
  let per_op = Vec.create 0. in
  Array.iteri
    (fun k b -> if ops.(k) > 0 then Vec.push per_op (b /. float_of_int ops.(k)))
    busy;
  {
    digests = Vec.to_array digests;
    ops;
    busy;
    per_op = Vec.to_array per_op;
    wall = !wall;
    peak;
    failed = !failed;
    prefix;
  }

(* At full scale items 0..block-1 are always checked against the
   expectations, even when the timed window was shorter than one
   block. *)
let prefix_totals cells ctx (p : pass) =
  let block = Array.length cells in
  if p.prefix.items >= block || not (full_scale ctx) then p.prefix
  else
    let extra = untraced cells ctx ~budget:0 ~items:block () in
    extra.prefix

(* Re-run every 64th item: a simulation must be a pure function of its
   configuration and seed. *)
let determinism_failures cells ctx (p : pass) =
  let bad = ref 0 in
  Array.iteri
    (fun i d ->
      if i mod 64 = 0 && d >= 0 then
        match fst (simulate cells ctx i) with
        | Some s when digest s = d -> ()
        | _ ->
          complain "item %d does not repeat" i;
          incr bad)
    p.digests;
  !bad

let run_e2e ctx =
  let (cells, p), setup_s =
    with_setup ctx
      (fun () -> setup ctx)
      (fun cells -> (cells, untraced cells ctx ~budget:(window_ns ctx) ()))
  in
  let prefix = prefix_totals cells ctx p in
  let failed =
    p.failed
    + determinism_failures cells ctx p
    + check_expected ctx "first_block" (totals_json prefix)
  in
  let n = Array.length p.digests in
  {
    attempted = n;
    failed;
    metrics =
      [
        ("ops_per_s", median_rate ~busy:p.busy ~work:p.ops);
        ("op_p50_ms", median_quantile_ms p.per_op 0.5);
        ("op_p90_ms", median_quantile_ms p.per_op 0.9);
        ("setup_s", setup_s);
        ("peak_rss_mb", p.peak);
      ];
    counts = [ ("first_block", totals_json prefix) ];
  }

(* Traced: the untraced pass takes half the window, then the same items
   run again through the bench sink. *)
let run_traced ctx =
  let cells = setup ctx in
  let p = untraced cells ctx ~budget:(window_ns ctx / 2) () in
  let n = Array.length p.digests in
  let block = Array.length cells in
  let attrib = Attrib.create () and c = trace_counts () in
  let first_block = ref Json.Null in
  let failed = ref p.failed in
  let summaries = totals () in
  for i = 0 to n - 1 do
    let tracer = Tracer.create (sink attrib c) in
    let r, _ = simulate ~tracer ~attrib cells ctx i in
    Tracer.close tracer;
    (match r with
    | Some s when digest s = p.digests.(i) -> add_totals summaries s
    | Some _ ->
      complain "item %d: traced run differs from the untraced run" i;
      incr failed
    | None -> if p.digests.(i) >= 0 then incr failed);
    if i = block - 1 then
      first_block :=
        Json.Obj
          [
            ("revisions", Json.Num (float_of_int c.revisions));
            ("notifications", Json.Num (float_of_int c.notifications));
          ]
  done;
  if c.ops <> summaries.operations || c.finished_ops <> summaries.operations
     || c.finished_evals <> summaries.evaluations
  then begin
    complain "trace counts (%d ops, %d finished, %d evals) disagree with \
              summaries (%d ops, %d evals)"
      c.ops c.finished_ops c.finished_evals summaries.operations
      summaries.evaluations;
    incr failed
  end;
  let wall = Attrib.wall_ns attrib in
  if abs (Attrib.total_ns attrib - wall) * 100 > wall then begin
    complain "layer totals %d ns do not sum to the traced wall %d ns"
      (Attrib.total_ns attrib) wall;
    incr failed
  end;
  if n >= block then
    failed := !failed + check_expected ctx "first_block_trace" !first_block;
  let untraced_wall = float_of_int p.wall in
  let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let fw = float_of_int wall in
  let layer_metrics =
    List.concat_map
      (fun l ->
        let name = Attrib.layer_name l in
        [
          (name ^ ".share", float_of_int (Attrib.ns attrib l) /. fw);
          (name ^ ".calls", per (Attrib.spans attrib l) n);
        ])
      Attrib.layers
  in
  {
    attempted = n;
    failed = !failed;
    metrics =
      layer_metrics
      @ [
          ("designer.idle_frac", per c.idle_turns c.turns);
          ("designer.choose_evals_per_op", per c.choose_evals c.ops);
          ("propagate.revisions_per_sim", per c.revisions n);
          ("propagate.incremental_frac", per c.incremental c.propagations);
          ("notify.notifications_per_op", per c.notifications c.ops);
          ("engine.deliveries_per_op", per c.deliveries c.ops);
          ("layers.item_us", fw /. float_of_int n /. 1e3);
          ("trace.overhead", (fw /. untraced_wall) -. 1.);
        ];
    counts = [ ("first_block_trace", !first_block) ];
  }

let run ctx = if ctx.traced then run_traced ctx else run_e2e ctx
