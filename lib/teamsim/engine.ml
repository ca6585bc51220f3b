open Adpm_util
open Adpm_csp
open Adpm_core
open Adpm_trace
module Dpool = Adpm_parallel.Dpool
module Model = Adpm_sim.Model
module Scheduler = Adpm_sim.Scheduler
module Fault = Adpm_fault.Fault

type outcome = {
  o_summary : Metrics.run_summary;
  o_dpm : Dpm.t;
  o_makespan : int;
}

(* {2 Run start and finish}

   Everything outside the turn-taking discipline: the run's copy of the
   compiled scenario, [Run_started], Rng stream layout (one split per
   designer, in [order]), the ADPM setup propagation's charged setup
   record and events, the kickoff statuses, and the closing summary. *)

let roster cfg scenario =
  Compiled.designers (Scenario.compiled scenario ~mode:cfg.Config.mode)

let start ~tracer cfg scenario ~order ~record =
  let compiled = Scenario.compiled scenario ~mode:cfg.Config.mode in
  let dpm, setup = Compiled.start compiled in
  Dpm.set_tracer dpm tracer;
  if Tracer.active tracer then
    Tracer.emit tracer
      (Event.Run_started
         {
           scenario = scenario.Scenario.sc_name;
           mode = Dpm.mode_to_string cfg.Config.mode;
           seed = cfg.Config.seed;
           engine = "incremental";
         });
  let rng = Rng.create cfg.Config.seed in
  let influence = Compiled.influence compiled in
  let designers =
    List.map
      (fun name -> Designer.create cfg ~rng:(Rng.split rng) ~influence name)
      order
  in
  let setup_evals =
    match setup with
    | None -> 0
    | Some s ->
      Compiled.trace_setup s tracer;
      let evaluations = Compiled.setup_evaluations s in
      record
        {
          Metrics.m_index = 0;
          m_designer = "<setup>";
          m_kind = "setup";
          m_evaluations = evaluations;
          m_new_violations = Compiled.setup_violated s;
          m_known_violations = List.length (Dpm.known_violations dpm);
          m_spin = false;
        };
      evaluations
  in
  (* the project kickoff: everyone leaves setup with the same picture of
     the constraint network (matters only under a nonzero latency, where
     later knowledge arrives with a delay) *)
  let statuses = Dpm.known_statuses dpm in
  List.iter (fun d -> Designer.learn_statuses d statuses) designers;
  (dpm, rng, designers, setup_evals)

let prepare cfg scenario =
  let dpm, _, designers, _ =
    start ~tracer:Tracer.null cfg scenario ~order:(roster cfg scenario)
      ~record:ignore
  in
  (dpm, designers)

let finish ~tracer cfg scenario dpm ~setup_evals ~profile ~makespan ~faults =
  let completed = Dpm.solved dpm && Dpm.ground_truth_solved dpm in
  if Tracer.active tracer then
    Tracer.emit tracer
      (Event.Run_finished
         {
           completed;
           operations = Dpm.op_count dpm;
           evaluations = Dpm.eval_count dpm;
           setup_evaluations = setup_evals;
           spins = Dpm.spin_count dpm;
           violations = List.sort compare (Dpm.known_violations dpm);
         });
  let summary =
    {
      Metrics.s_scenario = scenario.Scenario.sc_name;
      s_mode = cfg.Config.mode;
      s_seed = cfg.Config.seed;
      s_completed = completed;
      s_operations = Dpm.op_count dpm;
      s_evaluations = Dpm.eval_count dpm + setup_evals;
      s_spins = Dpm.spin_count dpm;
      s_faults = faults;
      s_profile = List.rev !profile;
    }
  in
  { o_summary = summary; o_dpm = dpm; o_makespan = makespan }

(* {2 The discrete-event driver} *)

type des_event =
  | Round_start
  | Next_turn  (** pop the next designer off this round's shuffled order *)
  | Op_done of {
      designer : Designer.t;
      op : Operator.t;
      evals_before : int;
    }  (** the chosen operation's virtual duration elapsed: execute it *)
  | Deliver of {
      recipient : Designer.t;
      own : bool;
      op : Operator.t;
      result : Dpm.result;
      sent_at : int;
      op_index : int;
    }  (** a routed outcome reaches a mailbox *)
  | Crash of Designer.t  (** scheduled fault: the designer goes down *)
  | Restart of Designer.t
      (** the crashed designer comes back, working memory wiped *)
  | Shift of Shift.t
      (** a scheduled requirement shift reaches its virtual time *)

let op_class op =
  match op.Operator.op_kind with
  | Operator.Synthesis _ -> Model.Synthesis
  | Operator.Verification _ -> Model.Verification
  | Operator.Decompose _ -> Model.Decompose

(* Virtual-time semantics, and why latency 0 is bit-identical to a
   lockstep loop in which every designer observes every outcome right
   after it executes (the lockstep fixture of test/test_golden.ml holds
   that loop's summaries; the des and fault suites check them):

   - Turns are serialized: [Next_turn] is only scheduled from [Round_start]
     or [Op_done], so at most one operation is ever in flight and durations
     stretch the clock without reordering decisions.
   - The shuffle is drawn once per [Round_start] from the run's shared
     Rng, and a designer's own stream is consumed only inside
     [choose_operation] — so every random draw happens in the same order.
   - Outcomes are delivered to mailboxes ([Designer.deliver]) and absorbed
     at the start of the recipient's next turn ([Designer.drain]).
     [observe] mutates only the observer's private state, so deferring it
     from "immediately after apply" to "before the observer next chooses"
     cannot change any decision: at latency 0 every delivery event carries
     delay 0 and therefore pops before the next [Next_turn] (scheduled
     later at the same time, hence a larger tie-break sequence), so each
     mailbox is complete before its owner acts.
   - With latency > 0 a teammate's outcome arrives [latency] ticks after
     the operation completes; until then the recipient's believed
     constraint statuses — and hence its repair decisions — lag the DPM's
     live state. The designer's own feedback is always instant. A round
     in which nobody acts ends the run only when no delivery is still in
     transit; otherwise the team waits a tick for it, since an idle
     designer may act once a teammate's outcome arrives. At latency 0
     every delivery is handled before the next turn, so the wait never
     triggers there.

   Fault semantics on top of the above:

   - The injector owns a dedicated Rng stream, split from the run's root
     generator only when the plan is non-none — a zero-fault run draws
     exactly the fault-free engine's random sequence and stays
     bit-identical to it.
   - Delivery fates are drawn at send time ([Op_done]), one draw sequence
     per teammate in designer order, so a rerun with the same seed drops,
     duplicates and jitters the very same deliveries. Own feedback is the
     local tool report and is never faulted.
   - A crashed designer skips its turns (without counting as activity),
     loses every delivery that arrives while it is down, and restarts
     with its working memory wiped ([Designer.restart]). While someone is
     down, an otherwise-idle round advances the clock one tick instead of
     halting, so the team waits for the restart rather than declaring the
     project stuck. In-flight operations still execute — the tool was
     already running when its operator crashed. *)
let run ?(on_op = fun _ -> ()) ?(tracer = Tracer.null) cfg scenario =
  Config.validate_exn cfg;
  let profile = ref [] in
  let record r =
    profile := r :: !profile;
    on_op r
  in
  let dpm, rng, designers, setup_evals =
    start ~tracer cfg scenario ~order:(roster cfg scenario) ~record
  in
  let injector =
    if Fault.is_none cfg.Config.faults then None
    else Some (Fault.create ~rng:(Rng.split rng) cfg.Config.faults)
  in
  let dropped = ref 0 and duplicated = ref 0 and crashes_fired = ref 0 in
  let dead : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let is_dead d = Hashtbl.mem dead (Designer.name d) in
  let sch : des_event Scheduler.t = Scheduler.create () in
  let finished = ref false in
  let continue_run () =
    (not !finished) && Dpm.op_count dpm < cfg.Config.max_ops
  in
  let order = ref [] in
  let acted = ref false in
  (* deliveries scheduled but not yet handled: an idle round does not end
     the run while a teammate's outcome is still on its way *)
  let in_transit = ref 0 in
  (* Requirement shifts: pre-scheduled below, applied through the DPM at
     their virtual time. A shift that lands while an operation is in
     flight is deferred to that operation's completion — the tool was
     already running against the old requirement — which keeps exactly one
     network mutation per scheduler event and a deterministic trace
     order. *)
  let shifts_remaining = ref (List.length cfg.Config.shifts) in
  let in_flight = ref false in
  let pending_shifts = ref [] in
  let apply_shift sh =
    decr shifts_remaining;
    if Tracer.active tracer then
      Tracer.emit tracer
        (Event.Requirement_shifted
           {
             prop = sh.Shift.sh_prop;
             value = sh.Shift.sh_value;
             at = Scheduler.now sch;
           });
    (* [shift_requirement] emits the induced [Constraint_status_changed]
       events itself, after the [Requirement_shifted] marker above *)
    ignore
      (Dpm.shift_requirement dpm ~prop:sh.Shift.sh_prop
         ~value:sh.Shift.sh_value
        : (int * Constr.status * Constr.status) list);
    (* the shift is the system lead's broadcast: every live designer
       learns the re-checked statuses at once; a crashed designer misses
       it like any other delivery *)
    let statuses = Dpm.known_statuses dpm in
    List.iter
      (fun d -> if not (is_dead d) then Designer.learn_statuses d statuses)
      designers
  in
  let handle ev =
    match ev with
    | Round_start ->
      if continue_run () then begin
        order := Rng.shuffle rng designers;
        acted := false;
        Scheduler.schedule sch ~delay:0 Next_turn
      end
      else Scheduler.halt sch
    | Next_turn -> (
      match !order with
      | [] ->
        if !acted then Scheduler.schedule sch ~delay:0 Round_start
        else if
          Hashtbl.length dead > 0 || !shifts_remaining > 0 || !in_transit > 0
        then
          (* everyone alive is idle but a teammate is down, a requirement
             shift is still scheduled or a delivery is in transit: wait a
             tick for it instead of declaring the project done *)
          Scheduler.schedule sch ~delay:1 Round_start
        else Scheduler.halt sch
      | designer :: rest ->
        order := rest;
        if continue_run () then begin
          if is_dead designer then Scheduler.schedule sch ~delay:0 Next_turn
          else begin
            if Tracer.active tracer then
              Tracer.emit tracer
                (Event.Turn_started
                   { designer = Designer.name designer; at = Scheduler.now sch });
            ignore (Designer.drain designer dpm : int);
            let evals_before = Dpm.eval_count dpm in
            match Designer.choose_operation designer dpm with
            | None -> Scheduler.schedule sch ~delay:0 Next_turn
            | Some op ->
              acted := true;
              if Tracer.active tracer then
                Tracer.emit tracer
                  (Event.Op_submitted
                     {
                       op = Operator.to_trace_spec op;
                       choose_evaluations = Dpm.eval_count dpm - evals_before;
                     });
              let delay =
                Model.duration_for cfg.Config.duration_model (op_class op)
              in
              in_flight := true;
              Scheduler.schedule sch ~delay
                (Op_done { designer; op; evals_before })
          end
        end
        else Scheduler.halt sch)
    | Op_done { designer; op; evals_before } ->
      in_flight := false;
      let result = Dpm.apply dpm op in
      if Tracer.active tracer then
        Tracer.emit tracer
          (Event.Op_completed
             { index = result.Dpm.r_index; at = Scheduler.now sch });
      let sent_at = Scheduler.now sch in
      let op_index = result.Dpm.r_index in
      List.iter
        (fun peer ->
          let own = peer == designer in
          let deliver extra =
            incr in_transit;
            Scheduler.schedule sch
              ~delay:
                (Model.delivery_delay ~extra ~latency:cfg.Config.latency ~own
                   ())
              (Deliver { recipient = peer; own; op; result; sent_at; op_index })
          in
          match injector with
          | Some inj when not own -> (
            let recipient = Designer.name peer in
            match Fault.delivery_fate inj with
            | Fault.Drop ->
              incr dropped;
              if Tracer.active tracer then
                Tracer.emit tracer
                  (Event.Notification_dropped
                     { recipient; op_index; at = sent_at })
            | Fault.Deliver { extra } -> deliver extra
            | Fault.Duplicate { extra; dup_extra } ->
              incr duplicated;
              if Tracer.active tracer then
                Tracer.emit tracer
                  (Event.Notification_duplicated
                     { recipient; op_index; at = sent_at });
              deliver extra;
              deliver dup_extra)
          | Some _ | None -> deliver 0)
        designers;
      record
        {
          Metrics.m_index = result.Dpm.r_index;
          m_designer = Designer.name designer;
          m_kind = Operator.kind_label op;
          m_evaluations = Dpm.eval_count dpm - evals_before;
          m_new_violations = List.length result.Dpm.r_newly_violated;
          m_known_violations = List.length (Dpm.known_violations dpm);
          m_spin = result.Dpm.r_spin;
        };
      (* shifts that landed while this operation was in flight take
         effect now, before the solved check — a just-moved requirement
         can un-solve the project *)
      let deferred = !pending_shifts in
      pending_shifts := [];
      List.iter apply_shift deferred;
      if Dpm.solved dpm && !shifts_remaining = 0 then begin
        finished := true;
        Scheduler.halt sch
      end
      else Scheduler.schedule sch ~delay:0 Next_turn
    | Crash designer ->
      Hashtbl.replace dead (Designer.name designer) ();
      incr crashes_fired;
      if Tracer.active tracer then
        Tracer.emit tracer
          (Event.Designer_crashed
             { designer = Designer.name designer; at = Scheduler.now sch })
    | Shift sh ->
      if !in_flight then pending_shifts := !pending_shifts @ [ sh ]
      else apply_shift sh
    | Restart designer ->
      Hashtbl.remove dead (Designer.name designer);
      Designer.restart designer;
      if Tracer.active tracer then
        Tracer.emit tracer
          (Event.Designer_restarted
             { designer = Designer.name designer; at = Scheduler.now sch })
    | Deliver { recipient; _ } when is_dead recipient ->
      (* deliveries to a crashed designer are lost with it *)
      decr in_transit
    | Deliver { recipient; own; op; result; sent_at; op_index } ->
      decr in_transit;
      Designer.deliver recipient ~own op result;
      if (not own) && Tracer.active tracer then (
        (* announce only deliveries the NM actually routed: the recipient
           subscribes to the touched properties and the outcome produced a
           notification-worthy event *)
        match
          List.find_opt
            (fun n ->
              String.equal n.Notify.n_recipient (Designer.name recipient))
            result.Dpm.r_notifications
        with
        | None -> ()
        | Some n ->
          Tracer.emit tracer
            (Event.Notification_delivered
               {
                 recipient = Designer.name recipient;
                 op_index;
                 sent_at;
                 delivered_at = Scheduler.now sch;
                 events = List.map Notify.event_label n.Notify.n_events;
                 violations = Notify.detected_violations n;
               }))
  in
  (* crash windows are scheduled before the first round so a time-0 crash
     fires before any turn at the same tick; an unknown name is a caller
     error, not a silently ignored fault *)
  List.iter
    (fun { Fault.cr_designer; cr_at; cr_recover } ->
      match
        List.find_opt
          (fun d -> String.equal (Designer.name d) cr_designer)
          designers
      with
      | None ->
        invalid_arg
          (Printf.sprintf "Engine.run: crash plan names unknown designer %S"
             cr_designer)
      | Some d ->
        Scheduler.schedule sch ~delay:cr_at (Crash d);
        Scheduler.schedule sch ~delay:(cr_at + cr_recover) (Restart d))
    cfg.Config.faults.Fault.p_crashes;
  (* requirement shifts are scheduled up front, like crash windows; an
     unknown property is a caller error, not a silently dropped shift *)
  List.iter
    (fun sh ->
      if not (Network.mem_prop (Dpm.network dpm) sh.Shift.sh_prop) then
        invalid_arg
          (Printf.sprintf "Engine.run: shift plan names unknown property %S"
             sh.Shift.sh_prop);
      if
        not
          (Adpm_interval.Domain.mem_num sh.Shift.sh_value
             (Network.initial_domain (Dpm.network dpm) sh.Shift.sh_prop))
      then
        invalid_arg
          (Printf.sprintf
             "Engine.run: shift plan moves %S to %.12g, outside its initial \
              range"
             sh.Shift.sh_prop sh.Shift.sh_value);
      Scheduler.schedule sch ~delay:sh.Shift.sh_at (Shift sh))
    cfg.Config.shifts;
  Scheduler.schedule sch ~delay:0 Round_start;
  Scheduler.run sch handle;
  (* pending mailbox deliveries at halt are discarded: the project is over
     (solved, idle, or out of budget) and nothing after [Run_finished] may
     appear in the trace *)
  finish ~tracer cfg scenario dpm ~setup_evals ~profile
    ~makespan:(Scheduler.now sch)
    ~faults:
      {
        Metrics.f_dropped = !dropped;
        f_duplicated = !duplicated;
        f_crashes = !crashes_fired;
      }

(* Parallelism never changes a number: each seed's run draws from its own
   Rng stream and starts from its own copy of the compiled scenario,
   whichever domain executes it (the template is never written). So
   the only contract the pool must keep is order and loudness: results
   come back in seed order, and a raising run names its seed. *)
let run_many ?(jobs = 1) cfg scenario ~seeds =
  let run_seed seed = (run (Config.with_seed cfg seed) scenario).o_summary in
  try Dpool.map ~jobs ~f:run_seed seeds
  with Dpool.Worker_error { index; message } ->
    failwith
      (Printf.sprintf "Engine.run_many: worker failed for seed %d: %s"
         (List.nth seeds index) message)
