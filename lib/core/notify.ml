open Adpm_interval
open Adpm_csp

type event =
  | Violation_detected of int
  | Violation_resolved of int
  | Feasible_reduced of string * Domain.t
  | Feasible_empty of string

type notification = { n_recipient : string; n_events : event list }

(* {2 Compiled subscriptions} *)

type routing = {
  r_designers : string array; (* first-seen order *)
  r_bits : Bytes.t array; (* per designer: one bit per prop id *)
}

let compile ~prop_count subscriptions =
  let bitset props =
    let b = Bytes.make ((prop_count + 7) / 8) '\000' in
    List.iter
      (fun pid ->
        if pid < 0 || pid >= prop_count then
          invalid_arg (Printf.sprintf "Notify.compile: prop id %d out of range" pid);
        let i = pid lsr 3 in
        Bytes.set_uint8 b i (Bytes.get_uint8 b i lor (1 lsl (pid land 7))))
      props;
    b
  in
  {
    r_designers = Array.of_list (List.map fst subscriptions);
    r_bits = Array.of_list (List.map (fun (_, props) -> bitset props) subscriptions);
  }

let designers r = Array.to_list r.r_designers

let[@inline] subscribed bits pid =
  Bytes.get_uint8 bits (pid lsr 3) land (1 lsl (pid land 7)) <> 0

(* {2 The transition diff} *)

type delta = {
  d_newly_violated : int list;
  d_resolved : int list;
  d_notifications : notification list;
}

let diff r net ~order ~args ~before ~after ~before_feasible ~after_feasible =
  let nd = Array.length r.r_designers in
  let acc = Array.make nd [] in
  let route touched ev =
    for d = 0 to nd - 1 do
      let bits = r.r_bits.(d) in
      let rec hit i =
        i < Array.length touched && (subscribed bits touched.(i) || hit (i + 1))
      in
      if hit 0 then acc.(d) <- ev :: acc.(d)
    done
  in
  (* Feasible events first, walking prop ids down so that prepending
     leaves them in id order; status events are then prepended on top. *)
  for pid = Network.prop_count net - 1 downto 0 do
    (* an unchanged domain is usually the same pointer; a structurally
       equal one has the same measure, so it emits nothing either *)
    let d = after_feasible.(pid) and old_d = before_feasible.(pid) in
    if d != old_d then begin
      let p = Network.prop_by_id net pid in
      if Domain.is_numeric p.Network.p_initial then
        if Domain.is_empty d then route [| pid |] (Feasible_empty p.Network.p_name)
        else if Domain.measure d < Domain.measure old_d then
          route [| pid |] (Feasible_reduced (p.Network.p_name, d))
    end
  done;
  let newly = ref [] and resolved = ref [] in
  for k = 0 to Array.length order - 1 do
    let cid = order.(k) in
    let b = before.(cid) and a = after.(cid) in
    if a <> b then
      match a with
      | Constr.Violated ->
        newly := cid :: !newly;
        route args.(cid) (Violation_detected cid)
      | Constr.Satisfied | Constr.Consistent ->
        if b = Constr.Violated then begin
          if a = Constr.Satisfied then resolved := cid :: !resolved;
          route args.(cid) (Violation_resolved cid)
        end
  done;
  let notifications = ref [] in
  for d = nd - 1 downto 0 do
    match acc.(d) with
    | [] -> ()
    | events ->
      notifications :=
        { n_recipient = r.r_designers.(d); n_events = events } :: !notifications
  done;
  {
    d_newly_violated = List.rev !newly;
    d_resolved = List.rev !resolved;
    d_notifications = !notifications;
  }

let status_changes ~before ~after =
  let changes = ref [] in
  for cid = Array.length after - 1 downto 0 do
    let b = before.(cid) and a = after.(cid) in
    if a <> b then changes := (cid, b, a) :: !changes
  done;
  !changes

(* {2 Rendering and tracing} *)

let event_label = function
  | Violation_detected cid -> Printf.sprintf "violation-detected:%d" cid
  | Violation_resolved cid -> Printf.sprintf "violation-resolved:%d" cid
  | Feasible_reduced (prop, _) -> "feasible-reduced:" ^ prop
  | Feasible_empty prop -> "feasible-empty:" ^ prop

let detected_violations n =
  List.filter_map
    (function Violation_detected cid -> Some cid | _ -> None)
    n.n_events

let trace_pushed tracer ~op_index notifications =
  let open Adpm_trace in
  if Tracer.active tracer then
    List.iter
      (fun n ->
        Tracer.emit tracer
          (Event.Notification_pushed
             {
               recipient = n.n_recipient;
               op_index;
               events = List.map event_label n.n_events;
               violations = detected_violations n;
             }))
      notifications
