open Adpm_interval

type t =
  | Const of float
  | Var of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Pow of t * int
  | Sqrt of t
  | Exp of t
  | Ln of t
  | Abs of t
  | Min of t * t
  | Max of t * t

let const c = Const c
let var x = Var x
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
let ( / ) a b = Div (a, b)
let ( ~- ) a = Neg a
let ( ** ) a n = Pow (a, n)

let sum = function
  | [] -> Const 0.
  | e :: rest -> List.fold_left (fun acc x -> Add (acc, x)) e rest

let scale k e = Mul (Const k, e)

let rec fold_vars f acc = function
  | Const _ -> acc
  | Var x -> f acc x
  | Neg a | Pow (a, _) | Sqrt a | Exp a | Ln a | Abs a -> fold_vars f acc a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b) | Max (a, b)
    ->
    fold_vars f (fold_vars f acc a) b

let vars e =
  (* First-occurrence order, deduplicated with a hash set rather than a
     [List.mem] scan: [vars] sits under every constraint compilation and
     was quadratic in the number of occurrences. *)
  let seen = Hashtbl.create 8 in
  List.rev
    (fold_vars
       (fun acc x ->
         if Hashtbl.mem seen x then acc
         else begin
           Hashtbl.add seen x ();
           x :: acc
         end)
       [] e)

let mentions e x = fold_vars (fun acc y -> acc || String.equal x y) false e

let rec size = function
  | Const _ | Var _ -> 1
  | Neg a | Pow (a, _) | Sqrt a | Exp a | Ln a | Abs a -> Stdlib.( + ) 1 (size a)
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b) | Max (a, b)
    ->
    Stdlib.( + ) 1 (Stdlib.( + ) (size a) (size b))

exception Unbound_variable of string

let rec eval env = function
  | Const c -> c
  | Var x -> env x
  | Neg a -> Stdlib.( ~-. ) (eval env a)
  | Add (a, b) -> Stdlib.( +. ) (eval env a) (eval env b)
  | Sub (a, b) -> Stdlib.( -. ) (eval env a) (eval env b)
  | Mul (a, b) -> Stdlib.( *. ) (eval env a) (eval env b)
  | Div (a, b) -> Stdlib.( /. ) (eval env a) (eval env b)
  | Pow (a, n) -> Stdlib.( ** ) (eval env a) (float_of_int n)
  | Sqrt a -> sqrt (eval env a)
  | Exp a -> exp (eval env a)
  | Ln a -> log (eval env a)
  | Abs a -> abs_float (eval env a)
  | Min (a, b) ->
    (* NaN-strict: IEEE [<=] would silently drop an undefined branch *)
    let x = eval env a and y = eval env b in
    if Float.is_nan x || Float.is_nan y then Float.nan else Stdlib.min x y
  | Max (a, b) ->
    let x = eval env a and y = eval env b in
    if Float.is_nan x || Float.is_nan y then Float.nan else Stdlib.max x y

let eval_opt env e =
  let exception Missing of string in
  let strict x =
    match env x with Some v -> v | None -> raise (Missing x)
  in
  match eval strict e with v -> Some v | exception Missing _ -> None

let eval_interval env e =
  let open Interval in
  let rec go = function
    | Const c -> Some (of_point c)
    | Var x -> Some (env x)
    | Neg a -> Option.map neg (go a)
    | Add (a, b) -> map2 add a b
    | Sub (a, b) -> map2 sub a b
    | Mul (a, b) -> map2 mul a b
    | Div (a, b) -> map2 div a b
    | Pow (a, n) -> Option.map (fun iv -> pow_int iv n) (go a)
    | Sqrt a -> Option.bind (go a) sqrt_i
    | Exp a -> Option.map exp_i (go a)
    | Ln a -> Option.bind (go a) ln_i
    | Abs a -> Option.map abs_i (go a)
    | Min (a, b) -> map2 min_i a b
    | Max (a, b) -> map2 max_i a b
  and map2 f a b =
    match (go a, go b) with Some x, Some y -> Some (f x y) | _, _ -> None
  in
  go e

(* Precedence: 0 = additive, 1 = multiplicative, 2 = unary/atoms. *)
let rec pp_prec prec ppf e =
  let paren p body =
    if Stdlib.( < ) p prec then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e with
  | Const c -> Format.fprintf ppf "%g" c
  | Var x -> Format.pp_print_string ppf x
  | Neg a -> paren 1 (fun ppf -> Format.fprintf ppf "-%a" (pp_prec 2) a)
  | Add (a, b) ->
    paren 0 (fun ppf ->
        Format.fprintf ppf "%a + %a" (pp_prec 0) a (pp_prec 1) b)
  | Sub (a, b) ->
    paren 0 (fun ppf ->
        Format.fprintf ppf "%a - %a" (pp_prec 0) a (pp_prec 1) b)
  | Mul (a, b) ->
    paren 1 (fun ppf ->
        Format.fprintf ppf "%a * %a" (pp_prec 1) a (pp_prec 2) b)
  | Div (a, b) ->
    paren 1 (fun ppf ->
        Format.fprintf ppf "%a / %a" (pp_prec 1) a (pp_prec 2) b)
  | Pow (a, n) ->
    paren 2 (fun ppf -> Format.fprintf ppf "%a^%d" (pp_prec 2) a n)
  | Sqrt a -> Format.fprintf ppf "sqrt(%a)" (pp_prec 0) a
  | Exp a -> Format.fprintf ppf "exp(%a)" (pp_prec 0) a
  | Ln a -> Format.fprintf ppf "ln(%a)" (pp_prec 0) a
  | Abs a -> Format.fprintf ppf "abs(%a)" (pp_prec 0) a
  | Min (a, b) ->
    Format.fprintf ppf "min(%a, %a)" (pp_prec 0) a (pp_prec 0) b
  | Max (a, b) ->
    Format.fprintf ppf "max(%a, %a)" (pp_prec 0) a (pp_prec 0) b

let to_string e = Format.asprintf "%a" (pp_prec 0) e
