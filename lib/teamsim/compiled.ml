open Adpm_csp
open Adpm_core
open Adpm_trace

type setup = {
  s_state : Dpm.propagated;
  s_evaluations : int;
  s_violated : int;
  s_events : Event.t list;
}

type t = {
  c_base : Dpm.t; (* frozen, as elaborated *)
  c_influence : Influence.t;
  c_lock : Mutex.t;
  mutable c_setups : (int * setup) list; (* by max_revisions *)
}

let compile ~models ~mode build =
  let dpm = build ~mode in
  Dpm.freeze dpm;
  {
    c_base = dpm;
    c_influence = Influence.analyse ~models (Dpm.network dpm);
    c_lock = Mutex.create ();
    c_setups = [];
  }

let influence c = c.c_influence
let designers c = Dpm.designers c.c_base
let assigned_num c name = Network.assigned_num (Dpm.network c.c_base) name

(* Setup is a pure function of the scenario and the budget: the kickoff
   propagation runs from scratch on the elaborated state (no persisted
   box store yet), so its result and its trace are the same for every
   run. It runs once, on an instance, with a collecting tracer, and what
   it wrote is kept. *)
let propagate_setup c ~max_revisions =
  let dpm = Dpm.instantiate c.c_base in
  let buf, sink = Sink.collector () in
  Dpm.set_tracer dpm (Tracer.create sink);
  let outcome = Dpm.run_propagation ~max_revisions dpm in
  {
    s_state = Dpm.propagated dpm;
    s_evaluations = outcome.Propagate.evaluations;
    s_violated =
      Array.fold_left
        (fun n s -> if s = Constr.Violated then n + 1 else n)
        0 outcome.Propagate.statuses;
    s_events = List.map (fun st -> st.Event.event) (Sink.Collect.contents buf);
  }

let setup c ~max_revisions =
  Mutex.protect c.c_lock (fun () ->
      match List.assoc_opt max_revisions c.c_setups with
      | Some s -> s
      | None ->
        let s = propagate_setup c ~max_revisions in
        c.c_setups <- (max_revisions, s) :: c.c_setups;
        s)

let start ?max_revisions c =
  match Dpm.mode c.c_base with
  | Dpm.Conventional -> (Dpm.instantiate c.c_base, None)
  | Dpm.Adpm ->
    let max_revisions =
      Option.value max_revisions ~default:(Dpm.max_revisions c.c_base)
    in
    let s = setup c ~max_revisions in
    (Dpm.instantiate ~from:s.s_state c.c_base, Some s)

let setup_evaluations s = s.s_evaluations
let setup_violated s = s.s_violated

let trace_setup s tracer =
  if Tracer.active tracer then List.iter (Tracer.emit tracer) s.s_events
