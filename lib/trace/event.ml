type value = Vnum of float | Vsym of string

type status = Satisfied | Violated | Consistent

let status_to_string = function
  | Satisfied -> "satisfied"
  | Violated -> "violated"
  | Consistent -> "consistent"

type subproblem = {
  sb_name : string;
  sb_owner : string;
  sb_inputs : string list;
  sb_outputs : string list;
  sb_constraints : int list;
  sb_depends_on : string list;
  sb_object : string option;
}

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
      engine : string;  (** "incremental"; "full" in older traces *)
    }
  | Op_submitted of { op : op_spec; choose_evaluations : int }
  | Op_executed of {
      index : int;
      designer : string;
      kind : string;
      evaluations : int;
      newly_violated : int list;
      resolved : int list;
      skipped : int list;
      spin : bool;
    }
  | Propagation_started of { constraints : int }
  | Propagation_finished of {
      engine : string;  (** how the worklist was seeded: "full"/"incremental" *)
      seeded : int;  (** constraints in the initial worklist *)
      evaluations : int;
      revisions : int;  (** HC4 revisions (evaluations minus status sweep) *)
      waves : int list;  (** revisions per propagation wave, in order *)
      empties : int;  (** constraints proven unsatisfiable on the box *)
      fixpoint : bool;  (** false when the revision budget stopped it *)
    }
  | Constraint_status_changed of {
      cid : int;
      old_status : status;
      new_status : status;
    }
  | Op_completed of {
      index : int;  (** operation index, matching [Op_executed] *)
      at : int;  (** virtual completion time (scheduler ticks) *)
    }
  | Turn_started of {
      designer : string;
      at : int;  (** virtual turn time (scheduler ticks) *)
    }
  | Notification_pushed of {
      recipient : string;
      op_index : int;  (** the operation whose outcome is being announced *)
      events : string list;  (** rendered event descriptions *)
      violations : int list;  (** ids of newly violated constraints *)
    }
  | Notification_delivered of {
      recipient : string;
      op_index : int;  (** the operation whose outcome was delivered *)
      sent_at : int;  (** virtual time the NM sent it (op completion) *)
      delivered_at : int;  (** virtual arrival time (sent + latency) *)
      events : string list;  (** rendered event descriptions *)
      violations : int list;  (** ids of newly violated constraints *)
    }
  | Designer_decision of {
      designer : string;
      heuristic : heuristic;
      target : string option;  (** chosen property, when one exists *)
      alpha : int;  (** violated constraints on the target (eq. 3) *)
      beta : int;  (** total constraints on the target *)
    }
  | Notification_dropped of {
      recipient : string;
      op_index : int;  (** the operation whose notification was lost *)
      at : int;  (** virtual send time (scheduler ticks) *)
    }
  | Notification_duplicated of {
      recipient : string;
      op_index : int;
      at : int;  (** virtual send time (scheduler ticks) *)
    }
  | Designer_crashed of {
      designer : string;
      at : int;  (** virtual crash time (scheduler ticks) *)
    }
  | Designer_restarted of {
      designer : string;
      at : int;  (** virtual restart time (scheduler ticks) *)
    }
  | Requirement_shifted of {
      prop : string;  (** the re-assigned requirement property *)
      value : float;  (** its new value *)
      at : int;  (** virtual shift time (scheduler ticks) *)
    }
  | Run_finished of {
      completed : bool;
      operations : int;  (** N_O *)
      evaluations : int;  (** N_T charged to the DPM *)
      setup_evaluations : int;  (** initial ADPM propagation (not in N_T) *)
      spins : int;
      violations : int list;  (** final known-violated constraint ids *)
    }

type stamped = { seq : int; clock : int; event : t }

let kind_label = function
  | Run_started _ -> "run_started"
  | Op_submitted _ -> "op_submitted"
  | Op_executed _ -> "op_executed"
  | Op_completed _ -> "op_completed"
  | Turn_started _ -> "turn_started"
  | Propagation_started _ -> "propagation_started"
  | Propagation_finished _ -> "propagation_finished"
  | Constraint_status_changed _ -> "constraint_status_changed"
  | Notification_pushed _ -> "notification_pushed"
  | Notification_delivered _ -> "notification_delivered"
  | Designer_decision _ -> "designer_decision"
  | Notification_dropped _ -> "notification_dropped"
  | Notification_duplicated _ -> "notification_duplicated"
  | Designer_crashed _ -> "designer_crashed"
  | Designer_restarted _ -> "designer_restarted"
  | Requirement_shifted _ -> "requirement_shifted"
  | Run_finished _ -> "run_finished"
