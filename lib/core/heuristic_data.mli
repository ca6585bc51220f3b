(** Constraint-based heuristic support data (Section 2.3).

    After each propagation, the DCM's raw results are "mined" into
    per-property data that directly supports the paper's three search
    heuristics:

    - the feasible subspace v_F(a_i) and its size relative to the initial
      range E_i (smallest-subspace-first ordering, Section 2.3.1; the
      relative size makes comparisons unit-free, addressing the paper's
      footnote about unit-dependent value-set sizes);
    - beta_i, the number of constraints in which a_i appears
      (most-constrained-first ordering, Section 2.3.2);
    - alpha_i, the number of {e violated} constraints in which a_i appears
      (conflict-resolution guidance, Section 2.3.3, equation 3);
    - per-direction repair votes: among the violated constraints that are
      monotonic in a_i, how many would be helped by increasing (resp.
      decreasing) its value (Section 3.1.1's "direction of value change
      likely to fix most violations"). *)

open Adpm_interval
open Adpm_csp

type prop_info = {
  hi_name : string;
  hi_assigned : Value.t option;
  hi_feasible : Domain.t;  (** v_F(a_i) from the last propagation *)
  hi_relative_size : float;
      (** measure of v_F relative to E_i, in [0, 1] *)
  hi_alpha : int;
  hi_beta : int;
  hi_up_helps : int list;
      (** all constraints that increasing a_i helps satisfy *)
  hi_down_helps : int list;
  hi_up_votes : int;
      (** violated constraints that increasing a_i would help *)
  hi_down_votes : int;
}

val mine_prop : Network.t -> string -> prop_info
(** @raise Not_found for unknown properties. *)

val indirect_beta : Network.t -> string -> int
(** The Section 2.3.2 extension: beta_i including constraints indirectly
    related to a_i through one intermediate constraint — i.e. every
    constraint touching a property that shares a constraint with a_i. *)

val indirect_alpha : Network.t -> string -> int
(** The same one-hop closure restricted to currently-violated
    constraints. *)

val mine : Network.t -> prop_info list
(** All numeric properties, in network insertion order. *)

val preferred_direction : prop_info -> [ `Up | `Down | `None ]
(** Majority repair vote; [`None] on a tie or when no violated constraint
    is monotone in the property. *)

val pp_prop_info : Format.formatter -> prop_info -> unit
