(** Ablation studies (the "other heuristics" evaluation the paper's
    conclusion defers to future work).

    (a) TeamSim ablation: disable each ADPM heuristic in isolation —
    smallest-feasible-subspace ordering (2.3.1), alpha-guided conflict
    repair (2.3.3), monotone direction hints, constraint-margin repair
    windows, and the design-history tabu — and measure operations and
    evaluations on the receiver case.

    (b), a backtracking-search comparison on random binary CSPs, was
    retired: it never touched the ADPM network. The label is kept so that
    (c) keeps its name.

    (c) DCM consistency ablation: hull consistency (one HC4 fixpoint, the
    default) against 3B-style bound shaving, measured by the mean relative
    feasible-window width on a mid-design receiver state (tight gain spec,
    two committed parameters) and the constraint evaluations spent — the
    precision/cost dial of the constraint management infrastructure the paper identifies as the key
    challenge. *)

type teamsim_row = {
  label : string;
  mean_ops : float;
  sd_ops : float;
  mean_evals : float;
  completion : int;  (** completed runs *)
  runs : int;
}

type consistency_row = {
  c_label : string;
  c_mean_window : float;
      (** mean relative feasible-window width over unbound properties *)
  c_evaluations : int;
}

type result = {
  teamsim : teamsim_row list;
  consistency : consistency_row list;
}

val run : ?seeds:int -> ?jobs:int -> unit -> result
(** Defaults: 15 seeds per TeamSim configuration. [jobs] parallelizes
    the TeamSim rows (the consistency ablation is single-process). *)

val render : result -> string
