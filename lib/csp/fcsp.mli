(** Finite-domain binary CSPs.

    The constraint-satisfaction substrate behind the heuristics the paper
    imports from the CSP literature (Bitner & Reingold's backtracking,
    Freuder & Quinn's stable-set variable ordering, Kumar's survey). The
    heuristic-ablation experiment uses this module together with
    {!Search} to demonstrate, on random binary CSPs, the search-acceleration
    claims that motivate ADPM's guidance. *)

type t = {
  nvars : int;
  domains : int list array;  (** candidate values per variable *)
  constraints : (int * int * (int -> int -> bool)) list;
      (** [(i, j, ok)]: values [vi] for variable [i] and [vj] for [j] are
          compatible iff [ok vi vj]. Constraints are symmetric in intent;
          store each pair once. *)
}

val make :
  nvars:int ->
  domains:int list array ->
  constraints:(int * int * (int -> int -> bool)) list ->
  t
(** @raise Invalid_argument on arity mismatches or out-of-range variable
    indices. *)

val degree : t -> int -> int
(** Number of constraints involving a variable. *)

val consistent_assignment : t -> int array -> bool
(** Does a full assignment satisfy every constraint? *)

val solutions : ?limit:int -> t -> int array list
(** Exhaustive enumeration (test oracle; exponential — only for small
    instances). [limit] stops early. *)
