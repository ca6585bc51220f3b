open Adpm_util
open Event

type latency = { l_designer : string; l_count : int; l_mean : float; l_max : int }

type span = {
  v_cid : int;
  v_times_opened : int;
  v_total_open : int;  (** clock ticks spent in Violated *)
  v_open_at_end : bool;
}

type report = {
  r_scenario : string option;
  r_mode : string option;
  r_engine : string option;  (** engine the run was configured with *)
  r_operations : int;
  r_evaluations : int;
  r_propagations : int;
  r_propagations_incremental : int;
      (** propagations whose worklist was dirty-seeded *)
  r_revisions_full : int;  (** HC4 revisions done by full-seeded runs *)
  r_revisions_incremental : int;  (** HC4 revisions done by dirty-seeded runs *)
  r_wave_sizes : int list;  (** revisions per wave, all propagations *)
  r_latencies : latency list;  (** per designer, name order *)
  r_spans : span list;  (** per constraint, id order *)
  r_notifications : int;
  r_turns : int;  (** [Turn_started] events — designer turns (DES runs) *)
  r_deliveries : int;  (** [Notification_delivered] events (DES runs) *)
  r_delivery_latency_mean : float;
      (** mean [delivered_at - sent_at] over deliveries, in virtual ticks
          (nan when the trace has none) *)
  r_makespan : int;
      (** latest virtual [Op_completed] timestamp; [0] for traces
          without virtual time (interactive sessions) *)
  r_dropped : int;  (** notifications lost by the fault injector *)
  r_duplicated : int;  (** notifications duplicated by the fault injector *)
  r_crashes : int;  (** scheduled designer crashes that fired *)
  r_restarts : int;  (** designer restarts that fired *)
  r_shifts : int;  (** requirement shifts applied mid-run *)
}

let analyze events =
  let scenario = ref None and mode = ref None and engine = ref None in
  let operations = ref 0 and evaluations = ref 0 in
  let propagations = ref 0 and propagations_incremental = ref 0 in
  let revisions_full = ref 0 and revisions_incremental = ref 0 in
  let wave_sizes = ref [] in
  let notifications = ref 0 in
  let turns = ref 0 in
  let deliveries = ref 0 in
  let delivery_ticks = ref 0 in
  let makespan = ref 0 in
  let dropped = ref 0 and duplicated = ref 0 in
  let crashes = ref 0 and restarts = ref 0 in
  let shifts = ref 0 in
  (* pending notification clocks per designer, oldest first *)
  let pending : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let latencies : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  (* violation spans: cid -> (clock opened) while open *)
  let open_since : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let spans : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let record_span cid opened closed =
    let times, total = try Hashtbl.find spans cid with Not_found -> (0, 0) in
    Hashtbl.replace spans cid (times + 1, total + (closed - opened))
  in
  let last_clock = ref 0 in
  List.iter
    (fun { clock; event; _ } ->
      last_clock := max !last_clock clock;
      match event with
      | Run_started { scenario = s; mode = m; engine = e; _ } ->
        scenario := Some s;
        mode := Some m;
        engine := Some e
      | Run_finished { operations = n_o; evaluations = n_t; _ } ->
        operations := n_o;
        evaluations := n_t
      | Op_submitted { op; _ } -> (
        match Hashtbl.find_opt pending op.op_designer with
        | None | Some [] -> ()
        | Some waiting ->
          let prev = try Hashtbl.find latencies op.op_designer with Not_found -> [] in
          Hashtbl.replace latencies op.op_designer
            (List.rev_append (List.rev_map (fun c -> clock - c) waiting) prev);
          Hashtbl.replace pending op.op_designer [])
      | Notification_pushed { recipient; _ } ->
        incr notifications;
        let waiting = try Hashtbl.find pending recipient with Not_found -> [] in
        Hashtbl.replace pending recipient (waiting @ [ clock ])
      | Op_completed { at; _ } -> makespan := max !makespan at
      | Turn_started { at; _ } ->
        incr turns;
        makespan := max !makespan at
      | Notification_delivered { sent_at; delivered_at; _ } ->
        incr deliveries;
        delivery_ticks := !delivery_ticks + (delivered_at - sent_at)
      | Propagation_finished { engine = e; revisions; waves; _ } ->
        incr propagations;
        if String.equal e "incremental" then begin
          incr propagations_incremental;
          revisions_incremental := !revisions_incremental + revisions
        end
        else revisions_full := !revisions_full + revisions;
        wave_sizes := List.rev_append waves !wave_sizes
      | Constraint_status_changed { cid; new_status; _ } -> (
        match (Hashtbl.find_opt open_since cid, new_status) with
        | None, Violated -> Hashtbl.replace open_since cid clock
        | Some opened, (Satisfied | Consistent) ->
          Hashtbl.remove open_since cid;
          record_span cid opened clock
        | Some _, Violated | None, (Satisfied | Consistent) -> ())
      | Notification_dropped _ -> incr dropped
      | Notification_duplicated _ -> incr duplicated
      | Designer_crashed _ -> incr crashes
      | Designer_restarted _ -> incr restarts
      | Requirement_shifted { at; _ } ->
        incr shifts;
        makespan := max !makespan at
      | Op_executed _ | Propagation_started _ | Designer_decision _ -> ())
    events;
  (* close still-open violations at the final clock *)
  let open_at_end = Hashtbl.fold (fun cid _ acc -> cid :: acc) open_since [] in
  Hashtbl.iter (fun cid opened -> record_span cid opened !last_clock) open_since;
  let span_list =
    Hashtbl.fold
      (fun cid (times, total) acc ->
        {
          v_cid = cid;
          v_times_opened = times;
          v_total_open = total;
          v_open_at_end = List.mem cid open_at_end;
        }
        :: acc)
      spans []
    |> List.sort (fun a b -> compare a.v_cid b.v_cid)
  in
  let latency_list =
    Hashtbl.fold
      (fun designer ls acc ->
        let n = List.length ls in
        let sum = List.fold_left ( + ) 0 ls in
        {
          l_designer = designer;
          l_count = n;
          l_mean = float_of_int sum /. float_of_int (max 1 n);
          l_max = List.fold_left max 0 ls;
        }
        :: acc)
      latencies []
    |> List.sort (fun a b -> compare a.l_designer b.l_designer)
  in
  {
    r_scenario = !scenario;
    r_mode = !mode;
    r_engine = !engine;
    r_operations = !operations;
    r_evaluations = !evaluations;
    r_propagations = !propagations;
    r_propagations_incremental = !propagations_incremental;
    r_revisions_full = !revisions_full;
    r_revisions_incremental = !revisions_incremental;
    r_wave_sizes = List.rev !wave_sizes;
    r_latencies = latency_list;
    r_spans = span_list;
    r_notifications = !notifications;
    r_turns = !turns;
    r_deliveries = !deliveries;
    r_delivery_latency_mean =
      (* nan (rendered as JSON null), never 0/0: a trace with no
         deliveries has no transit statistic at all *)
      (if !deliveries = 0 then Float.nan
       else float_of_int !delivery_ticks /. float_of_int !deliveries);
    r_makespan = !makespan;
    r_dropped = !dropped;
    r_duplicated = !duplicated;
    r_crashes = !crashes;
    r_restarts = !restarts;
    r_shifts = !shifts;
  }

let render r =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "=== Trace analysis: %s / %s (engine %s) ===\n"
    (Option.value ~default:"?" r.r_scenario)
    (Option.value ~default:"?" r.r_mode)
    (Option.value ~default:"?" r.r_engine);
  add "operations %d, evaluations %d, propagations %d, notifications %d\n"
    r.r_operations r.r_evaluations r.r_propagations r.r_notifications;
  if r.r_deliveries > 0 then
    add
      "virtual makespan %d ticks; %d teammate deliveries, mean transit %.2f \
       ticks\n"
      r.r_makespan r.r_deliveries r.r_delivery_latency_mean;
  if r.r_turns > 0 then add "designer turns taken: %d\n" r.r_turns;
  if r.r_dropped + r.r_duplicated + r.r_crashes > 0 then
    add
      "faults: %d notifications dropped, %d duplicated; %d designer crashes \
       (%d restarts)\n"
      r.r_dropped r.r_duplicated r.r_crashes r.r_restarts;
  if r.r_shifts > 0 then
    add "requirement shifts applied mid-run: %d\n" r.r_shifts;
  add "HC4 revisions: %d incremental (over %d dirty-seeded runs), %d full\n\n"
    r.r_revisions_incremental r.r_propagations_incremental r.r_revisions_full;
  (if r.r_latencies <> [] then begin
     let table =
       Table.create ~title:"Notification latency (clock ticks to next own op)"
         [ "Designer"; "Notifications"; "Mean latency"; "Max" ]
     in
     Table.set_align table [ Table.Left; Table.Right; Table.Right; Table.Right ];
     List.iter
       (fun l ->
         Table.add_row table
           [
             l.l_designer;
             string_of_int l.l_count;
             Printf.sprintf "%.2f" l.l_mean;
             string_of_int l.l_max;
           ])
       r.r_latencies;
     Buffer.add_string buf (Table.render table);
     Buffer.add_char buf '\n'
   end);
  (if r.r_spans <> [] then begin
     let table =
       Table.create ~title:"Violation open/close spans"
         [ "Constraint"; "Times opened"; "Open ticks"; "Open at end" ]
     in
     Table.set_align table [ Table.Right; Table.Right; Table.Right; Table.Left ];
     List.iter
       (fun s ->
         Table.add_row table
           [
             string_of_int s.v_cid;
             string_of_int s.v_times_opened;
             string_of_int s.v_total_open;
             (if s.v_open_at_end then "yes" else "no");
           ])
       r.r_spans;
     Buffer.add_string buf (Table.render table);
     Buffer.add_char buf '\n'
   end);
  (if r.r_wave_sizes <> [] then
     Buffer.add_string buf
       (Ascii_chart.histogram ~title:"Propagation-wave size (revisions per wave)"
          (List.map float_of_int r.r_wave_sizes)));
  Buffer.contents buf

let to_json r =
  let jint i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ( "scenario",
        match r.r_scenario with Some s -> Json.Str s | None -> Json.Null );
      ("mode", match r.r_mode with Some m -> Json.Str m | None -> Json.Null);
      ( "engine",
        match r.r_engine with Some e -> Json.Str e | None -> Json.Null );
      ("operations", jint r.r_operations);
      ("evaluations", jint r.r_evaluations);
      ("propagations", jint r.r_propagations);
      ("propagations_incremental", jint r.r_propagations_incremental);
      ("revisions_full", jint r.r_revisions_full);
      ("revisions_incremental", jint r.r_revisions_incremental);
      ("notifications", jint r.r_notifications);
      ("turns", jint r.r_turns);
      ("deliveries", jint r.r_deliveries);
      ( "delivery_latency_mean",
        (* the comparison is written to also catch nan *)
        if Float.is_finite r.r_delivery_latency_mean then
          Json.Num r.r_delivery_latency_mean
        else Json.Null );
      ("makespan", jint r.r_makespan);
      ("dropped", jint r.r_dropped);
      ("duplicated", jint r.r_duplicated);
      ("crashes", jint r.r_crashes);
      ("restarts", jint r.r_restarts);
      ("shifts", jint r.r_shifts);
      ("wave_sizes", Json.Arr (List.map jint r.r_wave_sizes));
      ( "notification_latency",
        Json.Arr
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("designer", Json.Str l.l_designer);
                   ("count", jint l.l_count);
                   ("mean", Json.Num l.l_mean);
                   ("max", jint l.l_max);
                 ])
             r.r_latencies) );
      ( "violation_spans",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("cid", jint s.v_cid);
                   ("times_opened", jint s.v_times_opened);
                   ("open_ticks", jint s.v_total_open);
                   ("open_at_end", Json.Bool s.v_open_at_end);
                 ])
             r.r_spans) );
    ]
