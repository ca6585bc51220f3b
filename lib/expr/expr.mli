(** Arithmetic expressions over design properties.

    Design constraints (Section 2.1 of the paper) are relations between
    arithmetic expressions of property values, e.g. [Pf + Ps <= Pm]. This
    module provides the expression AST shared by the constraint network, the
    propagation engine, the monotonicity analysis and the DDDL elaborator. *)

open Adpm_interval

type t =
  | Const of float
  | Var of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Pow of t * int  (** non-negative integer exponent *)
  | Sqrt of t
  | Exp of t
  | Ln of t
  | Abs of t
  | Min of t * t
  | Max of t * t

(** {1 Construction helpers} *)

val const : float -> t
val var : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t
val ( ** ) : t -> int -> t
val sum : t list -> t
(** [sum []] is [Const 0.]. *)

val scale : float -> t -> t

(** {1 Queries} *)

val vars : t -> string list
(** Distinct variable names, in first-occurrence order. *)

val mentions : t -> string -> bool
val size : t -> int
(** Node count. *)

(** {1 Evaluation} *)

exception Unbound_variable of string

val eval : (string -> float) -> t -> float
(** Point evaluation. May return non-finite values (division by zero, log of
    a non-positive number) following IEEE semantics; [Min]/[Max] are
    NaN-strict (an undefined argument makes the result undefined).
    @raise Unbound_variable via the environment function. *)

val eval_opt : (string -> float option) -> t -> float option
(** As {!eval} but [None] when any variable is unbound. *)

val eval_interval : (string -> Interval.t) -> t -> Interval.t option
(** Interval extension. [None] means the expression has no real value
    anywhere on the box (e.g. [sqrt] of an entirely negative interval). *)

(** {1 Printing} *)

val to_string : t -> string
(** Infix rendering with minimal parentheses. *)
