open Adpm_interval
open Adpm_expr

type rel = Le | Ge | Eq

type status = Satisfied | Violated | Consistent

type t = {
  id : int;
  name : string;
  lhs : Expr.t;
  rel : rel;
  rhs : Expr.t;
  c_args : string list;
  c_diff : Expr.t;
}

(* [Expr.vars] on [lhs - rhs] is exactly the historical
   [lhs_vars @ (rhs_vars not already in lhs_vars)]: a single deduplicated
   first-occurrence walk of the left side then the right. Computed once at
   construction — [args] used to re-walk both expressions (with a
   quadratic [List.mem] dedup) on every call, including from every
   [Network.add_constraint]. *)
let make ~id ~name lhs rel rhs =
  let diff = Expr.Sub (lhs, rhs) in
  { id; name; lhs; rel; rhs; c_args = Expr.vars diff; c_diff = diff }

let args c = c.c_args
let diff c = c.c_diff

let default_eps = 1e-9

let target ?(eps = default_eps) c =
  match c.rel with
  | Le -> Interval.make neg_infinity eps
  | Ge -> Interval.make (-.eps) infinity
  | Eq -> Interval.make (-.eps) eps

let check_point ?(eps = default_eps) env c =
  let d = Expr.eval env (diff c) in
  if Float.is_nan d then false
  else
    match c.rel with
    | Le -> d <= eps
    | Ge -> d >= -.eps
    | Eq -> abs_float d <= eps

(* The status of a constraint whose [diff] ranges over [[lo, hi]]. *)
let[@inline] range_status ~eps rel lo hi =
  match rel with
  | Le -> if hi <= eps then Satisfied else if lo > eps then Violated else Consistent
  | Ge ->
    if lo >= -.eps then Satisfied else if hi < -.eps then Violated else Consistent
  | Eq ->
    if lo >= -.eps && hi <= eps then Satisfied
    else if lo > eps || hi < -.eps then Violated
    else Consistent

let status_on_box ?(eps = default_eps) env c =
  match Expr.eval_interval env (diff c) with
  | None -> Violated
  | Some d -> range_status ~eps c.rel (Interval.lo d) (Interval.hi d)

let kernel_status c ks i sc =
  let root = Hc4.nodes ks i - 1 in
  range_status ~eps:default_eps c.rel sc.Hc4.s_flo.(root) sc.Hc4.s_fhi.(root)

let status_to_string = function
  | Satisfied -> "Satisfied"
  | Violated -> "Violated"
  | Consistent -> "Consistent"

let pp_status ppf s = Format.pp_print_string ppf (status_to_string s)

let to_string c =
  Printf.sprintf "%s: %s %s %s" c.name (Expr.to_string c.lhs)
    (match c.rel with Le -> "<=" | Ge -> ">=" | Eq -> "=")
    (Expr.to_string c.rhs)
