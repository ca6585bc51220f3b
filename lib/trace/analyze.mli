(** Trace analysis: fold a recorded event stream into the derived views
    TeamSim's statistics window consolidated on-line — notification
    latency per designer, the propagation-wave size distribution, and
    violation open/close spans — rendered as ASCII (via
    [Adpm_util.Ascii_chart] / [Table]) or exported as JSON. *)

type latency = {
  l_designer : string;
  l_count : int;  (** notifications received *)
  l_mean : float;  (** mean clock ticks until the designer's next operation *)
  l_max : int;
}

type span = {
  v_cid : int;
  v_times_opened : int;
  v_total_open : int;
  v_open_at_end : bool;
}

type report = {
  r_scenario : string option;
  r_mode : string option;
  r_engine : string option;
      (** engine the run was configured with, from [Run_started] *)
  r_operations : int;
  r_evaluations : int;
  r_propagations : int;
  r_propagations_incremental : int;
      (** propagations whose worklist was dirty-seeded *)
  r_revisions_full : int;
      (** HC4 revisions performed by full-seeded propagations *)
  r_revisions_incremental : int;
      (** HC4 revisions performed by dirty-seeded propagations *)
  r_wave_sizes : int list;
  r_latencies : latency list;
  r_spans : span list;
  r_notifications : int;
  r_turns : int;
      (** [Turn_started] events — live-designer turns the discrete-event
          engine granted *)
  r_deliveries : int;
      (** [Notification_delivered] events — teammate deliveries recorded
          by the discrete-event engine *)
  r_delivery_latency_mean : float;
      (** mean virtual transit time [delivered_at - sent_at] (nan when the
          trace has no deliveries) *)
  r_makespan : int;
      (** latest virtual operation-completion time; [0] for traces without
          [Op_completed] events *)
  r_dropped : int;
      (** [Notification_dropped] events — teammate notifications the fault
          injector lost *)
  r_duplicated : int;  (** [Notification_duplicated] events *)
  r_crashes : int;  (** [Designer_crashed] events *)
  r_restarts : int;  (** [Designer_restarted] events *)
  r_shifts : int;  (** [Requirement_shifted] events *)
}

val analyze : Event.stamped list -> report
val render : report -> string
val to_json : report -> Json.t
