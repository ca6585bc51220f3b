(** Structural monotonicity analysis.

    The paper's simulated designer (Section 3.1.1) keeps, for each property,
    the lists of constraints that are monotonically increasing and
    monotonically decreasing in it, and uses them to decide which direction
    to move a value when repairing violations. DDDL lets the scenario author
    declare monotonicity; this module derives it automatically from the
    constraint expression whenever the structure permits, so declarations
    are only needed where the analysis answers {!Unknown}.

    The analysis is conservative: a claim of [Increasing] / [Decreasing]
    (both weak, i.e. non-strict) is sound for all points of the supplied
    variable box. *)

open Adpm_interval

type direction = Increasing | Decreasing | Constant | Unknown

val direction :
  env:(string -> Interval.t) -> Expr.t -> string -> direction
(** [direction ~env e x]: how [e] varies as [x] grows, for variable values
    inside the boxes given by [env]. [env] must cover every variable of
    [e]. *)
