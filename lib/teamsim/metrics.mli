(** Simulation statistics capture.

    TeamSim's simulation engine "dynamically captures, stores, and
    consolidates simulation statistics" (Section 3.1): per executed
    operation, the number of constraint violations found, the number of
    constraint evaluations executed, and whether the operation was a design
    spin; plus run-level aggregates. *)

open Adpm_core

type op_record = {
  m_index : int;  (** 1-based operation number *)
  m_designer : string;
  m_kind : string;  (** "synthesis" / "verification" / "decompose" / "setup" *)
  m_evaluations : int;
  m_new_violations : int;
  m_known_violations : int;  (** known violations after the operation *)
  m_spin : bool;
}

type fault_counts = {
  f_dropped : int;  (** teammate notifications lost by the fault injector *)
  f_duplicated : int;  (** teammate notifications delivered twice *)
  f_crashes : int;  (** scheduled designer crashes that fired *)
}
(** What the fault injector actually did during one run. All zero —
    {!no_faults} — for fault-free runs. *)

val no_faults : fault_counts

type run_summary = {
  s_scenario : string;
  s_mode : Dpm.mode;
  s_seed : int;
  s_completed : bool;
  s_operations : int;  (** N_O: executed design operations *)
  s_evaluations : int;  (** N_T: total constraint evaluations (incl. setup) *)
  s_spins : int;
  s_faults : fault_counts;
  s_profile : op_record list;  (** chronological *)
}

val evaluations_per_op : run_summary -> float
(** N_E = N_T / N_O; [nan] when no operation executed. *)

val violations_found : run_summary -> int
(** Total violations discovered across the run. *)

val summary_line : run_summary -> string
