(** Simulation configuration.

    Bundles the paper's lambda switch (ADPM vs conventional, Section 3.1.2),
    the delta parameter of the value-selection function f_v (Section 3.1.1:
    "delta values around 100 times smaller than the size of E_i worked
    well"), and ablation switches for the individual heuristics, which the
    paper's conclusion calls out as future evaluation work. *)

open Adpm_core

type forward_ordering =
  | Smallest_subspace
      (** heuristic 2.3.1: the unbound parameter with the smallest feasible
          subspace first (needs ADPM's propagation; conventional mode falls
          back to random) *)
  | Most_constrained
      (** heuristic 2.3.2: the parameter appearing in the most constraints
          first (static knowledge, effective in both modes) *)
  | Random_target  (** uninformed baseline *)

type value_policy =
  | Endpoint
      (** the paper's f_v: push to the feasible-window end the monotone
          votes favour *)
  | Headroom
      (** the adaptability variant: among candidate quantiles of the
          feasible window, pick argmax log(min normalized constraint
          headroom) — keep every connected constraint comfortably away
          from its limit so later requirement shifts have margin to land
          in (ADPM mode only; conventional mode has no feasible window
          to sample) *)

val value_policy_to_string : value_policy -> string
val value_policy_of_string : string -> (value_policy, string) result

type t = {
  mode : Dpm.mode;  (** the paper's lambda *)
  seed : int;
  max_ops : int;  (** safety bound on executed operations *)
  max_revisions : int;  (** propagation fixpoint budget per run *)
  latency : int;
      (** notification latency in virtual ticks: the Notification Manager
          delivers an operation's outcome to teammates this long after the
          operation completes ([0] = instant broadcast, the legacy
          behaviour; the acting designer always learns instantly) *)
  duration_model : Adpm_sim.Model.duration;
      (** virtual ticks each operation takes (default
          {!Adpm_sim.Model.unit_duration}); durations never change run
          outcomes at [latency = 0], only the virtual makespan *)
  faults : Adpm_fault.Fault.plan;
      (** deterministic fault injection: notification drop/duplication
          probabilities, delivery jitter, and scheduled designer
          crash/restart windows (default {!Adpm_fault.Fault.none}, which
          keeps runs bit-identical to the fault-free engine) *)
  delta_divisor : float;
      (** repair step = |E_i| / delta_divisor (paper: about 100) *)
  adaptive_delta : bool;
      (** double the step on consecutive same-direction repairs *)
  forward_ordering : forward_ordering;
      (** how f_a orders unbound parameters during forward design *)
  use_alpha_repair : bool;
      (** heuristic 2.3.3: repair the property with most connected
          violations *)
  use_monotone_hints : bool;
      (** use repair-direction votes from monotonic constraints *)
  use_history_tabu : bool;
      (** consult design history to avoid previously-bad assignments *)
  use_relaxed_feasible : bool;
      (** ADPM repair values from constraint-margin propagation *)
  value_policy : value_policy;
      (** f_v variant for forward synthesis (default [Endpoint]) *)
  shifts : Shift.plan;
      (** requirement shifts applied at virtual time (default
          {!Shift.none}); only the discrete-event engine honours a
          non-empty plan *)
}

val default : mode:Dpm.mode -> seed:int -> t
(** All heuristics on ([forward_ordering = Smallest_subspace]),
    [max_ops = 2000], [delta_divisor = 100.], [latency = 0],
    unit durations. *)

val with_seed : t -> int -> t

val validate : t -> (unit, string) result
(** Reject configurations the engine cannot honour: non-positive
    [max_ops] or [max_revisions], a negative [latency], a negative
    duration, an invalid fault plan (out-of-range probabilities,
    negative jitter, non-positive recovery), or a non-positive (or nan)
    [delta_divisor]. *)

val validate_exn : t -> unit
(** @raise Invalid_argument with {!validate}'s message. *)
