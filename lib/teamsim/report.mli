(** Consolidation of multi-run statistics.

    Aggregates run summaries into the quantities Fig. 9 reports — average
    and standard deviation of the number of design operations, total and
    per-operation constraint evaluations, spins — and renders them. *)

open Adpm_util
open Adpm_core

type aggregate = {
  a_scenario : string;
  a_mode : Dpm.mode;
  a_runs : int;
  a_completed : int;
  a_ops : Stats_acc.t;
  a_evals : Stats_acc.t;
  a_evals_per_op : Stats_acc.t;
  a_spins : Stats_acc.t;
  a_violations : Stats_acc.t;
}

val aggregate : Metrics.run_summary list -> aggregate
(** @raise Invalid_argument on an empty list or on mixed scenarios/modes. *)

val runs :
  jobs:int -> Config.t -> Scenario.t -> seeds:int -> Metrics.run_summary list
(** One run per seed [1..seeds], in seed order, on [jobs] domains
    ({!Engine.run_many}): the seed set of every multi-seed experiment.

    @raise Invalid_argument when [seeds < 1]. *)

val sweep : jobs:int -> Config.t -> Scenario.t -> seeds:int -> aggregate
(** [aggregate (runs ~jobs cfg sc ~seeds)]. *)

val completion : aggregate -> float
(** The share of runs that completed. *)

val safe_div : float -> float -> float
(** [a /. b], or [infinity] when [b = 0.]: the ratios experiments report
    between aggregate means. *)

val mean_profile : Metrics.run_summary list -> (int * float * float) list
(** Per operation index: (index, mean new violations, mean evaluations)
    averaged across runs that reached that index — the data of Fig. 7.
    Ascending by index; indices no run reached are omitted. Single pass
    over the profiles (linear in the total number of records). *)

val comparison_table :
  title:string -> aggregate list -> string
(** Fig. 9-style table: one row per (scenario, mode) aggregate. *)
