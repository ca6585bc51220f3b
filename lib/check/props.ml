open Adpm_trace
module Fault = Adpm_fault.Fault

(* P1: a pushed violation reaches its owner, is resolved, or is
   excusably lost. Obligations are opened per (recipient, op, cid) at
   [Notification_pushed] and closed by a matching delivery, by the
   constraint leaving the violated state, or by the fault injector
   admitting the drop. *)

type p1_ob = { o_recipient : string; o_op : int; o_cid : int }

let notified_or_resolved ~horizon =
  Prop.leads_to ~name:"notified-or-resolved"
    ~doc:"every pushed violation is delivered to its owner or resolved"
    ~trigger:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Notification_pushed { recipient; op_index; violations; _ }
        when violations <> [] ->
        List.map
          (fun cid -> { o_recipient = recipient; o_op = op_index; o_cid = cid })
          violations
      | _ -> [])
    ~key:(fun ob -> Printf.sprintf "%s#%d#%d" ob.o_recipient ob.o_op ob.o_cid)
    ~describe:(fun ob ->
      Printf.sprintf
        "violation of constraint %d (op %d) never delivered to %s nor resolved"
        ob.o_cid ob.o_op ob.o_recipient)
    ~discharge:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Notification_delivered { recipient; op_index; _ } ->
        Some (fun ob -> ob.o_recipient = recipient && ob.o_op = op_index)
      | Event.Constraint_status_changed
          { cid; new_status = Event.Satisfied | Event.Consistent; _ } ->
        Some (fun ob -> ob.o_cid = cid)
      | _ -> None)
    ~excuse:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Notification_dropped { recipient; op_index; _ } ->
        Some (fun ob -> ob.o_recipient = recipient && ob.o_op = op_index)
      | _ -> None)
    ~at_end:(fun facts ob ->
      match Prop.completion_of facts ob.o_op with
      | None ->
        (* the engine stamps [Op_completed] right after every execution,
           so an executed operation without one is not excused *)
        false
      | Some sent ->
        (* still in flight when the run halted (pending deliveries are
           discarded at halt, so [>=] rather than [>]) *)
        sent + horizon >= Prop.makespan facts
        (* deliveries to a crashed designer are silently lost *)
        || Prop.crashed_during facts ob.o_recipient sent (sent + horizon)
        (* the actor's own feedback is local, never a teammate delivery *)
        || Prop.actor_of facts ob.o_op = Some ob.o_recipient)
    ()

(* P2: no live designer starves. The engine shuffles a full round of
   turns, so between two consecutive turns of a live designer at most
   2*(roster-1) other turns can occur (last slot of one round, first of
   the next). Crashed designers are disarmed — they are down, not
   starved — and re-arm at their first turn after restart. *)

let starvation_bound slack facts = (2 * Prop.roster_size facts) + slack

let no_starvation ?(slack = 4) () =
  Prop.bounded_count ~name:"no-starvation"
    ~doc:"bounded gap between consecutive turns of a live designer"
    ~arm:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Turn_started { designer; _ } -> [ designer ]
      | _ -> [])
    ~tick:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Turn_started { designer; _ } -> Some (fun k -> k <> designer)
      | _ -> None)
    ~disarm:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Designer_crashed { designer; _ } -> Some (fun k -> k = designer)
      | _ -> None)
    ~bound:(starvation_bound slack)
    ~describe:(fun k count ->
      Printf.sprintf "designer %s starved: %d other turns since their last" k
        count)

(* P3: crashed designers recover. Two halves under one name:
   (a) the scheduled restart fires when due — checkable only when the
       crash plan is known (the fuzzer knows it; a bare trace does not);
   (b) the restarted designer rejoins the rotation within a bounded
       number of other designers' turns. *)

type p3_ob = { c_designer : string; c_at : int }

let restart_fires crashes =
  Prop.leads_to ~name:"restart-fires"
    ~doc:"a scheduled restart fires when due"
    ~trigger:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Designer_crashed { designer; at } ->
        [ { c_designer = designer; c_at = at } ]
      | _ -> [])
    ~key:(fun ob -> Printf.sprintf "%s@%d" ob.c_designer ob.c_at)
    ~describe:(fun ob ->
      Printf.sprintf "designer %s crashed at %d and never restarted"
        ob.c_designer ob.c_at)
    ~discharge:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Designer_restarted { designer; _ } ->
        Some (fun ob -> ob.c_designer = designer)
      | _ -> None)
    ~at_end:(fun facts ob ->
      match
        List.find_opt
          (fun c ->
            c.Fault.cr_designer = ob.c_designer && c.Fault.cr_at = ob.c_at)
          crashes
      with
      | None -> true (* not in the known plan: cannot compute the deadline *)
      | Some c ->
        (* the restart was due at [cr_at + cr_recover]; a halt at the
           same instant may legitimately discard it, hence [>=] *)
        c.Fault.cr_at + c.Fault.cr_recover >= Prop.makespan facts)
    ()

let rejoins_rotation slack =
  Prop.bounded_count ~name:"rejoins-rotation"
    ~doc:"a restarted designer takes a turn again"
    ~arm:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Designer_restarted { designer; _ } -> [ designer ]
      | _ -> [])
    ~tick:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Turn_started { designer; _ } -> Some (fun k -> k <> designer)
      | _ -> None)
    ~disarm:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Turn_started { designer; _ } | Event.Designer_crashed { designer; _ }
        ->
        Some (fun k -> k = designer)
      | _ -> None)
    ~bound:(starvation_bound slack)
    ~describe:(fun k count ->
      Printf.sprintf
        "designer %s restarted but missed %d other turns without acting" k
        count)

let crash_rejoins ?(crashes = []) ?(slack = 4) () =
  Prop.conj ~name:"crash-rejoins"
    ~doc:"a crashed designer restarts on schedule and rejoins the rotation"
    [ restart_fires crashes; rejoins_rotation slack ]

(* P4: drop means drop. One notification per (recipient, op): once the
   injector reports it dropped, a later delivery of the same pair is a
   double-accounting bug. *)

let no_deliver_after_drop =
  Prop.after_never ~name:"no-deliver-after-drop"
    ~doc:"a dropped notification is never also delivered"
    ~mark:(fun (ev : Event.stamped) ->
      match ev.event with
      | Event.Notification_dropped { recipient; op_index; _ } ->
        [ Printf.sprintf "%s#%d" recipient op_index ]
      | _ -> [])
    ~bad:(fun (ev : Event.stamped) ->
      match ev.event with
      | Event.Notification_delivered { recipient; op_index; _ } ->
        [ Printf.sprintf "%s#%d" recipient op_index ]
      | _ -> [])
    ~describe:(fun k ->
      Printf.sprintf "notification %s was dropped yet later delivered" k)

(* P5: an idle halt waits for the mail. An unsolved run that ends right
   after an idle round must not leave a pushed notification neither
   delivered nor dropped: its recipient may act once it arrives. Unlike
   P1, an obligation still in flight at the end is the failure, not an
   excuse. *)

type p5_ob = { h_recipient : string; h_op : int }

let no_idle_halt_in_flight ~horizon =
  Prop.leads_to ~name:"no-idle-halt-in-flight"
    ~doc:"an idle, unsolved run does not end with a notification in flight"
    ~trigger:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Notification_pushed { recipient; op_index; _ } ->
        [ { h_recipient = recipient; h_op = op_index } ]
      | _ -> [])
    ~key:(fun ob -> Printf.sprintf "%s#%d" ob.h_recipient ob.h_op)
    ~describe:(fun ob ->
      Printf.sprintf
        "run ended idle and unsolved while op %d's notification to %s was \
         neither delivered nor dropped"
        ob.h_op ob.h_recipient)
    ~discharge:(fun _ (ev : Event.stamped) ->
      match ev.event with
      | Event.Notification_delivered { recipient; op_index; _ }
      | Event.Notification_dropped { recipient; op_index; _ } ->
        Some (fun ob -> ob.h_recipient = recipient && ob.h_op = op_index)
      | _ -> None)
    ~at_end:(fun facts ob ->
      (not (Prop.ended_idle facts))
      (* the actor's own feedback is local, never a teammate delivery *)
      || Prop.actor_of facts ob.h_op = Some ob.h_recipient
      (* deliveries to a crashed designer are silently lost *)
      ||
      match Prop.completion_of facts ob.h_op with
      | None -> false
      | Some sent -> Prop.crashed_during facts ob.h_recipient sent (sent + horizon))
    ()

let suite ?(horizon = 64) ?(crashes = []) () =
  [
    notified_or_resolved ~horizon;
    no_starvation ();
    crash_rejoins ~crashes ();
    no_deliver_after_drop;
    no_idle_halt_in_flight ~horizon;
  ]
