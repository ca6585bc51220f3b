type t = { lo : float; hi : float }

(* Without flambda, Stdlib's polymorphic [min]/[max] box float arguments
   and call the generic C comparison; these make the same selections. *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Interval.make: NaN bound";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let of_point x =
  if Float.is_nan x then invalid_arg "Interval.of_point: NaN";
  { lo = x; hi = x }

let full = { lo = neg_infinity; hi = infinity }
let lo a = a.lo
let hi a = a.hi
let is_bounded a = Float.is_finite a.lo && Float.is_finite a.hi
let mem x a = a.lo <= x && x <= a.hi
let width a = a.hi -. a.lo

let midpoint a =
  if is_bounded a then (a.lo +. a.hi) /. 2.
  else if Float.is_finite a.lo then a.lo
  else if Float.is_finite a.hi then a.hi
  else 0.

let intersect a b =
  let lo = fmax a.lo b.lo and hi = fmin a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let equal a b = a.lo = b.lo && a.hi = b.hi
let pp ppf a = Format.fprintf ppf "[%g, %g]" a.lo a.hi
let to_string a = Format.asprintf "%a" pp a

let neg a = { lo = -.a.hi; hi = -.a.lo }
let add a b = { lo = a.lo +. b.lo; hi = a.hi +. b.hi }
let sub a b = { lo = a.lo -. b.hi; hi = a.hi -. b.lo }

(* 0 * inf would be NaN under IEEE; interval semantics want 0. *)
let prod x y =
  if (x = 0. && not (Float.is_finite y)) || (y = 0. && not (Float.is_finite x))
  then 0.
  else x *. y

let mul a b =
  let p1 = prod a.lo b.lo and p2 = prod a.lo b.hi in
  let p3 = prod a.hi b.lo and p4 = prod a.hi b.hi in
  { lo = fmin (fmin p1 p2) (fmin p3 p4); hi = fmax (fmax p1 p2) (fmax p3 p4) }

let div a b =
  if b.lo > 0. || b.hi < 0. then
    let q x y = x /. y in
    let p1 = q a.lo b.lo and p2 = q a.lo b.hi in
    let p3 = q a.hi b.lo and p4 = q a.hi b.hi in
    { lo = fmin (fmin p1 p2) (fmin p3 p4); hi = fmax (fmax p1 p2) (fmax p3 p4) }
  else if b.lo = 0. && b.hi = 0. then full
  else if b.lo = 0. then
    (* divisor in [0, b.hi] *)
    if a.lo >= 0. then { lo = a.lo /. b.hi; hi = infinity }
    else if a.hi <= 0. then { lo = neg_infinity; hi = a.hi /. b.hi }
    else full
  else if b.hi = 0. then
    if a.lo >= 0. then { lo = neg_infinity; hi = a.lo /. b.lo }
    else if a.hi <= 0. then { lo = a.hi /. b.lo; hi = infinity }
    else full
  else full

let rec pow_int a n =
  if n < 0 then invalid_arg "Interval.pow_int: negative exponent"
  else if n = 0 then of_point 1.
  else if n = 1 then a
  else if n mod 2 = 0 then begin
    let abs_a = { lo = 0.; hi = fmax (abs_float a.lo) (abs_float a.hi) } in
    let abs_a =
      if a.lo > 0. then a
      else if a.hi < 0. then neg a
      else abs_a
    in
    let b = pow_int abs_a (n / 2) in
    mul b b
  end
  else { lo = a.lo ** float_of_int n; hi = a.hi ** float_of_int n }

let sqrt_i a =
  if a.hi < 0. then None
  else Some { lo = sqrt (fmax 0. a.lo); hi = sqrt a.hi }

let exp_i a = { lo = exp a.lo; hi = exp a.hi }

let ln_i a =
  if a.hi <= 0. then None
  else Some { lo = (if a.lo <= 0. then neg_infinity else log a.lo); hi = log a.hi }

let abs_i a =
  if a.lo >= 0. then a
  else if a.hi <= 0. then neg a
  else { lo = 0.; hi = fmax (-.a.lo) a.hi }

let min_i a b = { lo = fmin a.lo b.lo; hi = fmin a.hi b.hi }
let max_i a b = { lo = fmax a.lo b.lo; hi = fmax a.hi b.hi }

let inv_add_left z y = sub z y
let inv_sub_left z y = add z y
let inv_sub_right z x = sub x z
let inv_mul z y = div z y
let inv_div_left z y = mul z y
let inv_div_right z x = div x z

let inv_pow_int z n =
  if n < 0 then invalid_arg "Interval.inv_pow_int: negative exponent"
  else if n = 0 then Some full
  else if n mod 2 = 1 then begin
    let root x =
      if Float.is_finite x then
        let r = abs_float x ** (1. /. float_of_int n) in
        if x < 0. then -.r else r
      else x
    in
    Some { lo = root z.lo; hi = root z.hi }
  end
  else if z.hi < 0. then None
  else begin
    (* even power: preimage is symmetric, return the hull [-r, r] *)
    let r =
      if Float.is_finite z.hi then z.hi ** (1. /. float_of_int n) else infinity
    in
    Some { lo = -.r; hi = r }
  end

let inv_sqrt z =
  if z.hi < 0. then None
  else begin
    let lo = fmax 0. z.lo in
    Some { lo = lo *. lo; hi = (if Float.is_finite z.hi then z.hi *. z.hi else infinity) }
  end

let inv_exp z =
  if z.hi <= 0. then None
  else
    Some
      { lo = (if z.lo <= 0. then neg_infinity else log z.lo);
        hi = (if Float.is_finite z.hi then log z.hi else infinity) }

let inv_ln z =
  { lo = (if Float.is_finite z.lo then exp z.lo else 0.);
    hi = (if Float.is_finite z.hi then exp z.hi else infinity) }

let inv_abs z =
  let hi = fmax 0. z.hi in
  { lo = -.hi; hi }
