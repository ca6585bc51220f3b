open Adpm_interval

type direction = Increasing | Decreasing | Constant | Unknown

let flip = function
  | Increasing -> Decreasing
  | Decreasing -> Increasing
  | (Constant | Unknown) as d -> d

let combine a b =
  match (a, b) with
  | Constant, d | d, Constant -> d
  | Increasing, Increasing -> Increasing
  | Decreasing, Decreasing -> Decreasing
  | Unknown, _ | _, Unknown | Increasing, Decreasing | Decreasing, Increasing
    ->
    Unknown

type sign = Pos | Neg | Zero | Mixed

let sign_of_interval iv =
  let lo = Interval.lo iv and hi = Interval.hi iv in
  if lo = 0. && hi = 0. then Zero
  else if lo >= 0. then Pos
  else if hi <= 0. then Neg
  else Mixed

let sign env e =
  match Expr.eval_interval env e with
  | None -> Mixed
  | Some iv -> sign_of_interval iv

(* Direction of [d * s] where [d] is the direction of a term and [s] the
   sign of its (locally constant) cofactor. *)
let times d s =
  match (d, s) with
  | Constant, _ -> Constant
  | _, Zero -> Constant
  | d, Pos -> d
  | d, Neg -> flip d
  | _, Mixed -> Unknown

let direction ~env e x =
  let rec go e =
    if not (Expr.mentions e x) then Constant
    else
      match e with
      | Expr.Const _ -> Constant
      | Expr.Var y -> if String.equal x y then Increasing else Constant
      | Expr.Neg a -> flip (go a)
      | Expr.Add (a, b) -> combine (go a) (go b)
      | Expr.Sub (a, b) -> combine (go a) (flip (go b))
      | Expr.Mul (a, b) ->
        (* d(ab) = a'b + ab' : sum the sign contributions of both terms. *)
        combine (times (go a) (sign env b)) (times (go b) (sign env a))
      | Expr.Div (a, b) ->
        (* d(a/b) = a'/b - a b'/b^2 *)
        let term1 = times (go a) (sign env b) in
        let term2 = times (flip (go b)) (sign env a) in
        let well_defined =
          match sign env b with Pos | Neg -> true | Zero | Mixed -> false
        in
        if well_defined then combine term1 term2 else Unknown
      | Expr.Pow (a, n) ->
        if n = 0 then Constant
        else if n mod 2 = 1 then go a
        else times (go a) (sign env a)
      | Expr.Sqrt a | Expr.Exp a | Expr.Ln a -> go a
      | Expr.Abs a -> times (go a) (sign env a)
      | Expr.Min (a, b) | Expr.Max (a, b) -> combine (go a) (go b)
  in
  go e
