(** The typed trace event model: everything observable about one design
    process run, from operation submission through propagation waves to the
    notifications the NM pushes.

    The model is deliberately self-contained — events carry plain data
    (strings, ints, floats), not [Adpm_core] values — so that the trace
    library sits {e below} the engine layers it instruments and a recorded
    trace can be decoded without rebuilding any engine state. Conversions
    to and from engine types live next to those types
    ([Adpm_core.Operator.to_trace_spec] / [of_trace_spec]). *)

type value = Vnum of float | Vsym of string
(** Mirror of [Adpm_csp.Value.t]. *)

type status = Satisfied | Violated | Consistent
(** Mirror of [Adpm_csp.Constr.status]. *)

val status_to_string : status -> string

type subproblem = {
  sb_name : string;
  sb_owner : string;
  sb_inputs : string list;
  sb_outputs : string list;
  sb_constraints : int list;
  sb_depends_on : string list;
  sb_object : string option;
}
(** Mirror of [Adpm_core.Operator.subproblem_spec]. *)

type op_kind =
  | Synthesis of (string * value) list
  | Verification of int list
  | Decompose of subproblem list

type op_spec = {
  op_designer : string;
  op_problem : int;
  op_kind : op_kind;
  op_motivated_by : int list;
}
(** A full description of one design operation — enough to reconstruct the
    [Operator.t] and re-execute it during replay. *)

type heuristic =
  | Smallest_subspace
  | Most_constrained
  | Random_target
  | Conflict_resolution
  | Verification_request

type t =
  | Run_started of {
      scenario : string;
      mode : string;
      seed : int;
      engine : string;
          (** propagation engine the run used: new runs write
              "incremental"; "full" marks a trace of the retired
              from-scratch engine, whose per-operation N_T replay
              reproduces by propagating from scratch *)
    }
  | Op_submitted of { op : op_spec; choose_evaluations : int }
      (** Emitted by the engine just before the DPM executes the operation.
          [choose_evaluations] is the constraint-evaluation cost the
          designer spent {e deciding} (relaxed-feasibility queries); replay
          re-charges it so N_T totals match exactly. *)
  | Op_executed of {
      index : int;
      designer : string;
      kind : string;
      evaluations : int;
      newly_violated : int list;
      resolved : int list;
      skipped : int list;
      spin : bool;
    }  (** Emitted by the DPM after the transition completes. *)
  | Propagation_started of { constraints : int }
  | Propagation_finished of {
      engine : string;
          (** how this propagation's worklist was seeded: ["full"] (every
              constraint) or ["incremental"] (constraints of dirty
              properties only); an incremental engine falling back to a
              from-scratch run reports ["full"] *)
      seeded : int;  (** constraints in the initial worklist *)
      evaluations : int;
      revisions : int;
          (** HC4 revisions performed (the evaluation total minus the final
              status sweep) — the work the incremental engine saves *)
      waves : int list;
      empties : int;
      fixpoint : bool;
    }
  | Constraint_status_changed of {
      cid : int;
      old_status : status;
      new_status : status;
    }
  | Op_completed of { index : int; at : int }
      (** Emitted by the discrete-event engine when the operation's
          virtual duration elapses ([at] is in scheduler ticks), right
          after its execution. *)
  | Turn_started of { designer : string; at : int }
      (** A live designer's turn began at virtual time [at]: it drains its
          mailbox and considers acting (possibly choosing nothing). Crashed
          designers are skipped without a turn. Emitted only by the
          discrete-event engine; the temporal-property checker reads these
          to bound turn gaps (starvation / rejoin-after-restart). *)
  | Notification_pushed of {
      recipient : string;
      op_index : int;
          (** index of the operation whose outcome is announced; pairs the
              push with its [Notification_delivered] / [_dropped] fate *)
      events : string list;
      violations : int list;
    }
      (** The NM {e sent} a notification (emitted at operation-execution
          time). With a nonzero notification latency the recipient sees it
          only at the matching [Notification_delivered]. *)
  | Notification_delivered of {
      recipient : string;
      op_index : int;
      sent_at : int;
      delivered_at : int;  (** [sent_at + latency], scheduler ticks *)
      events : string list;
      violations : int list;
    }
      (** A routed notification {e arrived} in a teammate's mailbox (the
          acting designer's own feedback is instant and not re-announced).
          Emitted only by the discrete-event engine. *)
  | Designer_decision of {
      designer : string;
      heuristic : heuristic;
      target : string option;
      alpha : int;
      beta : int;
    }
  | Notification_dropped of { recipient : string; op_index : int; at : int }
      (** The fault injector lost this teammate's copy of the
          notification for operation [op_index] — the matching
          [Notification_delivered] never happens. Emitted only by the
          discrete-event engine under a fault plan. *)
  | Notification_duplicated of { recipient : string; op_index : int; at : int }
      (** The fault injector duplicated the notification: two
          [Notification_delivered] events follow for the same
          [op_index]. *)
  | Designer_crashed of { designer : string; at : int }
      (** A scheduled fault took [designer] down at virtual time [at]:
          the designer stops acting, queued and in-flight deliveries to
          it are lost, and its believed-status table is gone. *)
  | Designer_restarted of { designer : string; at : int }
      (** The crashed designer came back with an {e empty}
          believed-status table, rebuilt only from subsequent
          deliveries. *)
  | Requirement_shifted of { prop : string; value : float; at : int }
      (** A scheduled requirement shift fired at virtual time [at]: the
          requirement property [prop] was re-assigned to [value] through
          the DPM (the adaptability workload). Replay re-applies it so
          later operations see the moved requirement. *)
  | Run_finished of {
      completed : bool;
      operations : int;
      evaluations : int;
      setup_evaluations : int;
      spins : int;
      violations : int list;
    }

type stamped = { seq : int; clock : int; event : t }
(** [seq] is a per-tracer monotonic sequence number; [clock] is the logical
    clock — the number of design operations executed when the event fired
    (0 during setup). *)

val kind_label : t -> string
(** The event's JSONL ["type"] tag. *)
