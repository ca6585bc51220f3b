(* Long-lived tables belong off the OCaml heap (see [Influence]): every
   word there raises the major heap's steady size by several. *)
type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  code : ints;  (* per node, postorder: opcode, a, b *)
  consts : floats;
  var_ids : ints;  (* per program, its distinct variables' store indices *)
  node_first : ints;  (* program -> its first node; [count] -> total *)
  var_first : ints;  (* program -> its first [var_ids] entry *)
  max_nodes : int;
}

let op_const = 0
let op_var = 1
let op_neg = 2
let op_add = 3
let op_sub = 4
let op_mul = 5
let op_div = 6
let op_pow = 7
let op_sqrt = 8
let op_exp = 9
let op_ln = 10
let op_abs = 11
let op_min = 12
let op_max = 13

let ints a =
  Bigarray.Array1.init Bigarray.int32 Bigarray.c_layout (Array.length a)
    (fun i -> Int32.of_int a.(i))

let get (a : ints) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

(* a: first child (node index within the program), store index or
   constant slot; b: second child or integer exponent *)
let compile ~var_id exprs =
  let code = ref [] and consts = ref [] and n_consts = ref 0 in
  let var_ids = ref [] in
  let node_first = Array.make (Array.length exprs + 1) 0 in
  let var_first = Array.make (Array.length exprs + 1) 0 in
  let nodes = ref 0 and n_vars = ref 0 in
  Array.iteri
    (fun i e ->
      let first = !nodes in
      let emit o a b =
        code := b :: a :: o :: !code;
        incr nodes;
        !nodes - 1 - first
      in
      let rec go = function
        | Expr.Const c ->
          consts := c :: !consts;
          incr n_consts;
          emit op_const (!n_consts - 1) 0
        | Expr.Var x -> emit op_var (var_id x) 0
        | Expr.Neg a -> un op_neg a
        | Expr.Sqrt a -> un op_sqrt a
        | Expr.Exp a -> un op_exp a
        | Expr.Ln a -> un op_ln a
        | Expr.Abs a -> un op_abs a
        | Expr.Pow (a, k) ->
          let ia = go a in
          emit op_pow ia k
        | Expr.Add (a, b) -> bin op_add a b
        | Expr.Sub (a, b) -> bin op_sub a b
        | Expr.Mul (a, b) -> bin op_mul a b
        | Expr.Div (a, b) -> bin op_div a b
        | Expr.Min (a, b) -> bin op_min a b
        | Expr.Max (a, b) -> bin op_max a b
      and un o a =
        let ia = go a in
        emit o ia 0
      and bin o a b =
        let ia = go a in
        let ib = go b in
        emit o ia ib
      in
      ignore (go e : int);
      List.iter
        (fun x ->
          var_ids := var_id x :: !var_ids;
          incr n_vars)
        (Expr.vars e);
      node_first.(i + 1) <- !nodes;
      var_first.(i + 1) <- !n_vars)
    exprs;
  let max_nodes = ref 1 in
  for i = 0 to Array.length exprs - 1 do
    max_nodes := max !max_nodes (node_first.(i + 1) - node_first.(i))
  done;
  {
    code = ints (Array.of_list (List.rev !code));
    consts =
      Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout
        (Array.of_list (List.rev !consts));
    var_ids = ints (Array.of_list (List.rev !var_ids));
    node_first = ints node_first;
    var_first = ints var_first;
    max_nodes = !max_nodes;
  }

let nodes t i = get t.node_first (i + 1) - get t.node_first i
let max_nodes t = t.max_nodes
let vars_from t i = get t.var_first i
let vars_to t i = get t.var_first (i + 1)
let var t k = get t.var_ids k

let mentions t i x =
  let rec scan k = k < vars_to t i && (var t k = x || scan (k + 1)) in
  scan (vars_from t i)

(* One sweep over the program's nodes, each result stored at its own
   index. The operations are [Expr.eval]'s, literally: [Stdlib.min]/[max]
   on floats are [if x <= y then x else y] / [if x >= y ...], which decide
   the sign of a zero result the same way. *)
let eval t i ~env ~stack =
  let code = t.code and first = get t.node_first i in
  let n = get t.node_first (i + 1) - first in
  for j = 0 to n - 1 do
    let k = 3 * (first + j) in
    let o = get code k and a = get code (k + 1) and b = get code (k + 2) in
    stack.(j) <-
      (if o = op_const then Bigarray.Array1.unsafe_get t.consts a
       else if o = op_var then env.(a)
       else if o = op_neg then -.stack.(a)
       else if o = op_add then stack.(a) +. stack.(b)
       else if o = op_sub then stack.(a) -. stack.(b)
       else if o = op_mul then stack.(a) *. stack.(b)
       else if o = op_div then stack.(a) /. stack.(b)
       else if o = op_pow then stack.(a) ** float_of_int b
       else if o = op_sqrt then sqrt stack.(a)
       else if o = op_exp then exp stack.(a)
       else if o = op_ln then log stack.(a)
       else if o = op_abs then abs_float stack.(a)
       else
         let x = stack.(a) and y = stack.(b) in
         if Float.is_nan x || Float.is_nan y then Float.nan
         else if o = op_min then if x <= y then x else y
         else if x >= y then x
         else y)
  done;
  stack.(n - 1)
