(* The list-based Notification Manager that the dense [Notify.diff]
   replaced, kept as its test oracle: events are computed from closures
   and association lists keyed by property name, and each designer's
   notification keeps the events touching one of its subscribed names,
   found by [List.mem]. The QCheck properties in [Test_core] and
   [Test_transition] tie production to this definition. *)

open Adpm_interval
open Adpm_csp
open Adpm_core

type subscriptions = (string * string list) list
(** designer name -> subscribed properties *)

(* Status transitions: entering [Violated] detects; leaving it (for
   [Satisfied] or [Consistent]) resolves; any other transition is silent.
   Feasibility: emptied -> [Feasible_empty] only; strictly smaller
   measure -> [Feasible_reduced]; widening is silent. Each event is tagged
   with the properties it touches. *)
let routed_events ~args_of ~old_statuses ~new_statuses ~old_feasible
    ~new_feasible =
  let status_events =
    List.concat_map
      (fun (cid, s) ->
        let old_s = old_statuses cid in
        if s = old_s then []
        else
          match s with
          | Constr.Violated -> [ (args_of cid, Notify.Violation_detected cid) ]
          | Constr.Satisfied | Constr.Consistent ->
            if old_s = Constr.Violated then
              [ (args_of cid, Notify.Violation_resolved cid) ]
            else [])
      new_statuses
  in
  let feasible_events =
    List.filter_map
      (fun (prop, d) ->
        let old_d = old_feasible prop in
        if Domain.equal d old_d then None
        else if Domain.is_empty d then Some ([ prop ], Notify.Feasible_empty prop)
        else if Domain.measure d < Domain.measure old_d then
          Some ([ prop ], Notify.Feasible_reduced (prop, d))
        else None)
      new_feasible
  in
  status_events @ feasible_events

let diff ~subscriptions ~args_of ~old_statuses ~new_statuses ~old_feasible
    ~new_feasible =
  let events =
    routed_events ~args_of ~old_statuses ~new_statuses ~old_feasible
      ~new_feasible
  in
  List.filter_map
    (fun (designer, props) ->
      let relevant =
        List.filter_map
          (fun (touched, event) ->
            if List.exists (fun p -> List.mem p props) touched then Some event
            else None)
          events
      in
      match relevant with
      | [] -> None
      | _ -> Some { Notify.n_recipient = designer; n_events = relevant })
    subscriptions
