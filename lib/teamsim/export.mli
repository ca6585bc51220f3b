(** Export of captured simulation statistics.

    TeamSim "dynamically captures, stores, and consolidates simulation
    statistics for on-line visualization and post-simulation analysis"
    (Section 3.1). The original fed Gnuplot; these exporters emit the
    per-operation profile and run summary as CSV and JSON so any external
    tool can consume them. *)

val profile_csv : Metrics.run_summary -> string
(** One header row, one row per operation record:
    [op,designer,kind,evaluations,new_violations,known_violations,spin]. *)

val summary_json : Metrics.run_summary -> string
(** The whole run — metadata, totals, and the per-operation profile — as a
    single JSON document. *)

val runs_csv : Metrics.run_summary list -> string
(** One row per run: scenario, mode, seed, completed, operations,
    evaluations, spins, violations — the Fig. 9 raw data. *)
