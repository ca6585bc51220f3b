open Adpm_interval

type result = Empty | Narrowed of (string * Interval.t) list

(* Expression tree annotated with forward-evaluated intervals. *)
type anode = { shape : shape; fwd : Interval.t }

and shape =
  | A_const
  | A_var of string
  | A_neg of anode
  | A_add of anode * anode
  | A_sub of anode * anode
  | A_mul of anode * anode
  | A_div of anode * anode
  | A_pow of anode * int
  | A_sqrt of anode
  | A_exp of anode
  | A_ln of anode
  | A_abs of anode
  | A_min of anode * anode
  | A_max of anode * anode

exception Empty_projection

let annotate env e =
  let rec go e =
    match e with
    | Expr.Const c -> { shape = A_const; fwd = Interval.of_point c }
    | Expr.Var x -> { shape = A_var x; fwd = env x }
    | Expr.Neg a ->
      let na = go a in
      { shape = A_neg na; fwd = Interval.neg na.fwd }
    | Expr.Add (a, b) -> bin Interval.add (fun x y -> A_add (x, y)) a b
    | Expr.Sub (a, b) -> bin Interval.sub (fun x y -> A_sub (x, y)) a b
    | Expr.Mul (a, b) -> bin Interval.mul (fun x y -> A_mul (x, y)) a b
    | Expr.Div (a, b) -> bin Interval.div (fun x y -> A_div (x, y)) a b
    | Expr.Pow (a, n) ->
      let na = go a in
      { shape = A_pow (na, n); fwd = Interval.pow_int na.fwd n }
    | Expr.Sqrt a ->
      let na = go a in
      (match Interval.sqrt_i na.fwd with
      | None -> raise Empty_projection
      | Some iv -> { shape = A_sqrt na; fwd = iv })
    | Expr.Exp a ->
      let na = go a in
      { shape = A_exp na; fwd = Interval.exp_i na.fwd }
    | Expr.Ln a ->
      let na = go a in
      (match Interval.ln_i na.fwd with
      | None -> raise Empty_projection
      | Some iv -> { shape = A_ln na; fwd = iv })
    | Expr.Abs a ->
      let na = go a in
      { shape = A_abs na; fwd = Interval.abs_i na.fwd }
    | Expr.Min (a, b) -> bin Interval.min_i (fun x y -> A_min (x, y)) a b
    | Expr.Max (a, b) -> bin Interval.max_i (fun x y -> A_max (x, y)) a b
  and bin op mk a b =
    let na = go a and nb = go b in
    { shape = mk na nb; fwd = op na.fwd nb.fwd }
  in
  go e

(* Plain floating-point arithmetic is used instead of outward rounding, so a
   backward projection can land one ulp away from a degenerate input box
   (e.g. [(a - b) + b <> a]); widen projections by a magnitude-relative
   epsilon before intersecting so that only real gaps produce Empty.

   The slack is per-bound, not per-interval: [t -> t -. slack t] and
   [t -> t +. slack t] are monotone in [t], so widening is isotone in the
   interval-inclusion order ([X subset Y] implies [widen X subset widen Y]).
   A per-interval slack taken from the largest finite magnitude is *not*
   isotone — a projection with one infinite bound gets a smaller slack than
   a tighter all-finite one — and propagation relies on isotonicity for its
   fixpoint to be independent of revision order (the incremental engine's
   restarts must converge to bit-identical boxes).

   [fmin]/[fmax] are [Interval.fmin]/[fmax], copied because dune's default
   profile compiles with [-opaque], which stops cross-module inlining.
   [fmax 1.0 x] is [Float.max 1.0 x] for every [x]. *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b
let[@inline] bound_slack t = 1e-11 *. fmax 1.0 (Float.abs t)

let widen iv =
  let lo = Interval.lo iv and hi = Interval.hi iv in
  let lo = if Float.is_finite lo then lo -. bound_slack lo else lo in
  let hi = if Float.is_finite hi then hi +. bound_slack hi else hi in
  Interval.make lo hi

let revise ~env e target =
  let narrowings : (string, Interval.t) Hashtbl.t = Hashtbl.create 8 in
  let record x iv =
    let iv = widen iv in
    let cur = try Hashtbl.find narrowings x with Not_found -> env x in
    match Interval.intersect cur iv with
    | None -> raise Empty_projection
    | Some res -> Hashtbl.replace narrowings x res
  in
  let meet node tgt =
    let tgt = widen tgt in
    match Interval.intersect node.fwd tgt with
    | None -> raise Empty_projection
    | Some iv -> iv
  in
  (* [back node tgt] assumes [tgt] is already inside the node's forward
     interval. *)
  let rec back node tgt =
    match node.shape with
    | A_const -> ()
    | A_var x -> record x tgt
    | A_neg a -> back a (meet a (Interval.neg tgt))
    | A_add (a, b) ->
      back a (meet a (Interval.inv_add_left tgt b.fwd));
      back b (meet b (Interval.inv_add_left tgt a.fwd))
    | A_sub (a, b) ->
      back a (meet a (Interval.inv_sub_left tgt b.fwd));
      back b (meet b (Interval.inv_sub_right tgt a.fwd))
    | A_mul (a, b) ->
      back a (meet a (Interval.inv_mul tgt b.fwd));
      back b (meet b (Interval.inv_mul tgt a.fwd))
    | A_div (a, b) ->
      back a (meet a (Interval.inv_div_left tgt b.fwd));
      back b (meet b (Interval.inv_div_right tgt a.fwd))
    | A_pow (a, n) -> (
      match Interval.inv_pow_int tgt n with
      | None -> raise Empty_projection
      | Some pre -> back a (meet a pre))
    | A_sqrt a -> (
      match Interval.inv_sqrt tgt with
      | None -> raise Empty_projection
      | Some pre -> back a (meet a pre))
    | A_exp a -> (
      match Interval.inv_exp tgt with
      | None -> raise Empty_projection
      | Some pre -> back a (meet a pre))
    | A_ln a -> back a (meet a (Interval.inv_ln tgt))
    | A_abs a -> back a (meet a (Interval.inv_abs tgt))
    | A_min (a, b) ->
      (* Both arguments are >= tgt.lo; an argument is additionally <= tgt.hi
         when the other is certainly above tgt.hi (it must then realise the
         minimum). *)
      let floor_only = Interval.make (Interval.lo tgt) infinity in
      let bound child other =
        if Interval.lo other.fwd > Interval.hi tgt then meet child tgt
        else meet child floor_only
      in
      back a (bound a b);
      back b (bound b a)
    | A_max (a, b) ->
      let ceil_only = Interval.make neg_infinity (Interval.hi tgt) in
      let bound child other =
        if Interval.hi other.fwd < Interval.lo tgt then meet child tgt
        else meet child ceil_only
      in
      back a (bound a b);
      back b (bound b a)
  in
  match
    let root = annotate env e in
    let tgt = meet root target in
    back root tgt
  with
  | () ->
    let out =
      List.map
        (fun x ->
          let iv = try Hashtbl.find narrowings x with Not_found -> env x in
          (x, iv))
        (Expr.vars e)
    in
    Narrowed out
  | exception Empty_projection -> Empty

(* {2 Compiled flat kernel}

   [revise] above allocates an annotated tree, a narrowings hash table and
   a binding list on every call — and it is called millions of times per
   simulation sweep. The kernel below compiles an expression once into a
   postorder opcode array, revised against preallocated scratch, so a
   revision is two array sweeps over floats that allocate nothing, on
   every operator.
   Without flambda that takes care: floats passed to or returned from a
   function that is not inlined are boxed, as are polymorphic [min]/[max]
   arguments. So the float helpers are monomorphic and [@inline], the
   sweeps are top-level functions (no closure per call), and floats cross
   calls only through the scratch arrays and [fpair]. A test checks that
   [Gc.minor_words] does not move across either sweep.

   Bit-identity with [revise] is load-bearing: the incremental engine's
   equivalence argument and the parallel-agreement fingerprints both assume
   the fixpoint is a function of the constraint system only. Every float
   formula below therefore mirrors the corresponding [Interval] operation
   literally (including the [prod] 0*inf convention and the branch
   structure of [div] and [pow_int]), the backward pass recurses in the
   same a-then-b order, and [intersect]/[widen] are applied with the same
   operand order. A QCheck suite pins [revise_kernel] against [revise]. *)

(* All-float record: fields are stored flat, so mutating it does not
   allocate. Used as a two-float out-parameter for [div]/[mul]/[pow]. *)
type fpair = { mutable rlo : float; mutable rhi : float }

(* Kernels live as long as their scenario's compiled template, and in
   the OCaml heap every long-lived word raises the major heap's steady
   size by several (see [Point]): the programs are off-heap int32 and
   float64 arrays, one set per constraint network. *)
type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type kernels = {
  code : ints;
      (* per node, postorder within its kernel (root last): opcode, a, b —
         a: first child (node index within the kernel), variable slot or
         constant index; b: second child or integer exponent *)
  consts : floats;  (* the constant pool of every kernel *)
  vars : ints;  (* per kernel, its distinct variables' store ids *)
  node_first : ints;  (* kernel -> its first node; [count] -> total *)
  var_first : ints;  (* kernel -> its first [vars] entry *)
  targets : floats;  (* 2i, 2i+1: kernel i's target interval *)
  count : int;
  max_nodes : int;
  max_slots : int;
}

(* The mutable half of a revision, shared by every kernel a domain runs:
   kernels are used one at a time, so one set of arrays sized for the
   largest is enough. *)
type scratch = {
  s_flo : float array;  (** forward-pass intervals, per node *)
  s_fhi : float array;
  s_blo : float array;  (** backward-pass targets, per node *)
  s_bhi : float array;
  s_acc_lo : float array;  (** per-variable narrowing accumulator, per slot *)
  s_acc_hi : float array;
  s_tmp : fpair;
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

let int32s a =
  Bigarray.Array1.init Bigarray.int32 Bigarray.c_layout (Array.length a)
    (fun i -> Int32.of_int a.(i))

let float64s a = Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout a

let[@inline] get (a : ints) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
let[@inline] fget (a : floats) i = Bigarray.Array1.unsafe_get a i

let compile_set ~var_id cases =
  let n = Array.length cases in
  let code = ref [] and consts = ref [] and n_consts = ref 0 in
  let vars = ref [] and n_vars = ref 0 and nodes = ref 0 in
  let node_first = Array.make (n + 1) 0 and var_first = Array.make (n + 1) 0 in
  let max_nodes = ref 0 and max_slots = ref 0 in
  Array.iteri
    (fun i (e, _) ->
      let first = !nodes in
      let names = Expr.vars e in
      let slot_of : (string, int) Hashtbl.t = Hashtbl.create 8 in
      List.iteri (fun j x -> Hashtbl.replace slot_of x j) names;
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
        | Expr.Var x -> emit op_var (Hashtbl.find slot_of x) 0
        | Expr.Neg a -> un op_neg a
        | Expr.Sqrt a -> un op_sqrt a
        | Expr.Exp a -> un op_exp a
        | Expr.Ln a -> un op_ln a
        | Expr.Abs a -> un op_abs a
        | Expr.Pow (a, k) ->
          if k < 0 then invalid_arg "Hc4.compile: negative exponent";
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
      let root = go e in
      assert (root = Expr.size e - 1);
      List.iter
        (fun x ->
          vars := var_id x :: !vars;
          incr n_vars)
        names;
      node_first.(i + 1) <- !nodes;
      var_first.(i + 1) <- !n_vars;
      max_nodes := max !max_nodes (root + 1);
      max_slots := max !max_slots (List.length names))
    cases;
  {
    code = int32s (Array.of_list (List.rev !code));
    consts = float64s (Array.of_list (List.rev !consts));
    vars = int32s (Array.of_list (List.rev !vars));
    node_first = int32s node_first;
    var_first = int32s var_first;
    targets =
      float64s
        (Array.init (2 * n) (fun k ->
             let _, target = cases.(k / 2) in
             if k mod 2 = 0 then Interval.lo target else Interval.hi target));
    count = n;
    max_nodes = !max_nodes;
    max_slots = !max_slots;
  }

let compile ~var_id e ~target = compile_set ~var_id [| (e, target) |]
let count ks = ks.count
let max_nodes ks = ks.max_nodes
let max_slots ks = ks.max_slots
let nodes ks i = get ks.node_first (i + 1) - get ks.node_first i
let arity ks i = get ks.var_first (i + 1) - get ks.var_first i
let[@inline] var ks i j = get ks.vars (get ks.var_first i + j)

let make_scratch ~nodes ~slots =
  let nodes = max 1 nodes and slots = max 1 slots in
  {
    s_flo = Array.make nodes 0.;
    s_fhi = Array.make nodes 0.;
    s_blo = Array.make nodes 0.;
    s_bhi = Array.make nodes 0.;
    s_acc_lo = Array.make slots 0.;
    s_acc_hi = Array.make slots 0.;
    s_tmp = { rlo = 0.; rhi = 0. };
  }

let scratch_key =
  Stdlib.Domain.DLS.new_key (fun () -> make_scratch ~nodes:64 ~slots:16)

let scratch ~nodes ~slots =
  let sc = Stdlib.Domain.DLS.get scratch_key in
  if Array.length sc.s_flo >= nodes && Array.length sc.s_acc_lo >= slots then sc
  else begin
    let sc =
      make_scratch
        ~nodes:(max nodes (Array.length sc.s_flo))
        ~slots:(max slots (Array.length sc.s_acc_lo))
    in
    Stdlib.Domain.DLS.set scratch_key sc;
    sc
  end

(* Float mirrors of the [Interval] operations. Branches and operand order
   are copied verbatim so results (including NaN flows and signed zeros)
   are bitwise those of the boxed path. *)

let[@inline] prod_f x y =
  if (x = 0. && not (Float.is_finite y)) || (y = 0. && not (Float.is_finite x))
  then 0.
  else x *. y

let[@inline] mul_into buf alo ahi blo bhi =
  let p1 = prod_f alo blo and p2 = prod_f alo bhi in
  let p3 = prod_f ahi blo and p4 = prod_f ahi bhi in
  buf.rlo <- fmin (fmin p1 p2) (fmin p3 p4);
  buf.rhi <- fmax (fmax p1 p2) (fmax p3 p4)

let[@inline] div_into buf alo ahi blo bhi =
  if blo > 0. || bhi < 0. then begin
    let p1 = alo /. blo and p2 = alo /. bhi in
    let p3 = ahi /. blo and p4 = ahi /. bhi in
    buf.rlo <- fmin (fmin p1 p2) (fmin p3 p4);
    buf.rhi <- fmax (fmax p1 p2) (fmax p3 p4)
  end
  else if blo = 0. && bhi = 0. then begin
    buf.rlo <- neg_infinity;
    buf.rhi <- infinity
  end
  else if blo = 0. then
    if alo >= 0. then begin
      buf.rlo <- alo /. bhi;
      buf.rhi <- infinity
    end
    else if ahi <= 0. then begin
      buf.rlo <- neg_infinity;
      buf.rhi <- ahi /. bhi
    end
    else begin
      buf.rlo <- neg_infinity;
      buf.rhi <- infinity
    end
  else if bhi = 0. then
    if alo >= 0. then begin
      buf.rlo <- neg_infinity;
      buf.rhi <- alo /. blo
    end
    else if ahi <= 0. then begin
      buf.rlo <- ahi /. blo;
      buf.rhi <- infinity
    end
    else begin
      buf.rlo <- neg_infinity;
      buf.rhi <- infinity
    end
  else begin
    buf.rlo <- neg_infinity;
    buf.rhi <- infinity
  end

(* [Interval.pow_int] in place: [buf] holds the base on entry and the
   power on exit, so the recursion passes no floats. *)
let rec pow_in_place buf n =
  if n = 0 then begin
    buf.rlo <- 1.;
    buf.rhi <- 1.
  end
  else if n = 1 then ()
  else if n mod 2 = 0 then begin
    let alo = buf.rlo and ahi = buf.rhi in
    if alo > 0. then ()
    else if ahi < 0. then begin
      buf.rlo <- -.ahi;
      buf.rhi <- -.alo
    end
    else begin
      buf.rlo <- 0.;
      buf.rhi <- fmax (abs_float alo) (abs_float ahi)
    end;
    pow_in_place buf (n / 2);
    let blo = buf.rlo and bhi = buf.rhi in
    mul_into buf blo bhi blo bhi
  end
  else begin
    buf.rlo <- buf.rlo ** float_of_int n;
    buf.rhi <- buf.rhi ** float_of_int n
  end

let[@inline] wlo_f t = if Float.is_finite t then t -. bound_slack t else t
let[@inline] whi_f t = if Float.is_finite t then t +. bound_slack t else t

(* The odd-exponent preimage bound of [Interval.inv_pow_int]. *)
let[@inline] odd_root ex x =
  if Float.is_finite x then begin
    let r = abs_float x ** (1. /. float_of_int ex) in
    if x < 0. then -.r else r
  end
  else x

(* Forward sweep: load the variables' boxes from the store into the
   accumulators, then evaluate every node bottom-up into [s_flo]/[s_fhi]
   (the boxed [annotate]). Raises [Empty_projection] where [annotate]
   does: [sqrt] or [ln] of a box with no point in their domain. *)
let[@inline] op_at code base i = get code (base + (3 * i))
let[@inline] a_at code base i = get code (base + (3 * i) + 1)
let[@inline] b_at code base i = get code (base + (3 * i) + 2)

let forward ks kid sc ~lo ~hi =
  let vars = ks.vars and vf = get ks.var_first kid in
  let acc_lo = sc.s_acc_lo and acc_hi = sc.s_acc_hi in
  for j = 0 to get ks.var_first (kid + 1) - vf - 1 do
    let v = get vars (vf + j) in
    acc_lo.(j) <- lo.(v);
    acc_hi.(j) <- hi.(v)
  done;
  let first = get ks.node_first kid in
  let code = ks.code and base = 3 * first in
  let flo = sc.s_flo and fhi = sc.s_fhi in
  let tmp = sc.s_tmp in
  for i = 0 to get ks.node_first (kid + 1) - first - 1 do
    let o = op_at code base i in
    if o = op_const then begin
      let c = fget ks.consts (a_at code base i) in
      flo.(i) <- c;
      fhi.(i) <- c
    end
    else if o = op_var then begin
      let j = a_at code base i in
      flo.(i) <- acc_lo.(j);
      fhi.(i) <- acc_hi.(j)
    end
    else if o = op_neg then begin
      let ia = a_at code base i in
      flo.(i) <- -.fhi.(ia);
      fhi.(i) <- -.flo.(ia)
    end
    else if o = op_add then begin
      let ia = a_at code base i and ib = b_at code base i in
      flo.(i) <- flo.(ia) +. flo.(ib);
      fhi.(i) <- fhi.(ia) +. fhi.(ib)
    end
    else if o = op_sub then begin
      let ia = a_at code base i and ib = b_at code base i in
      flo.(i) <- flo.(ia) -. fhi.(ib);
      fhi.(i) <- fhi.(ia) -. flo.(ib)
    end
    else if o = op_mul then begin
      let ia = a_at code base i and ib = b_at code base i in
      mul_into tmp flo.(ia) fhi.(ia) flo.(ib) fhi.(ib);
      flo.(i) <- tmp.rlo;
      fhi.(i) <- tmp.rhi
    end
    else if o = op_div then begin
      let ia = a_at code base i and ib = b_at code base i in
      div_into tmp flo.(ia) fhi.(ia) flo.(ib) fhi.(ib);
      flo.(i) <- tmp.rlo;
      fhi.(i) <- tmp.rhi
    end
    else if o = op_pow then begin
      let ia = a_at code base i in
      tmp.rlo <- flo.(ia);
      tmp.rhi <- fhi.(ia);
      pow_in_place tmp (b_at code base i);
      flo.(i) <- tmp.rlo;
      fhi.(i) <- tmp.rhi
    end
    else if o = op_sqrt then begin
      let ia = a_at code base i in
      if fhi.(ia) < 0. then raise_notrace Empty_projection;
      flo.(i) <- sqrt (fmax 0. flo.(ia));
      fhi.(i) <- sqrt fhi.(ia)
    end
    else if o = op_exp then begin
      let ia = a_at code base i in
      flo.(i) <- exp flo.(ia);
      fhi.(i) <- exp fhi.(ia)
    end
    else if o = op_ln then begin
      let ia = a_at code base i in
      if fhi.(ia) <= 0. then raise_notrace Empty_projection;
      flo.(i) <- (if flo.(ia) <= 0. then neg_infinity else log flo.(ia));
      fhi.(i) <- log fhi.(ia)
    end
    else if o = op_abs then begin
      let ia = a_at code base i in
      if flo.(ia) >= 0. then begin
        flo.(i) <- flo.(ia);
        fhi.(i) <- fhi.(ia)
      end
      else if fhi.(ia) <= 0. then begin
        flo.(i) <- -.fhi.(ia);
        fhi.(i) <- -.flo.(ia)
      end
      else begin
        flo.(i) <- 0.;
        fhi.(i) <- fmax (-.flo.(ia)) fhi.(ia)
      end
    end
    else if o = op_min then begin
      let ia = a_at code base i and ib = b_at code base i in
      flo.(i) <- fmin flo.(ia) flo.(ib);
      fhi.(i) <- fmin fhi.(ia) fhi.(ib)
    end
    else begin
      (* op_max *)
      let ia = a_at code base i and ib = b_at code base i in
      flo.(i) <- fmax flo.(ia) flo.(ib);
      fhi.(i) <- fmax fhi.(ia) fhi.(ib)
    end
  done

(* [meet sc i plo phi]: widen the projected target and intersect it with
   node [i]'s forward interval into the backward scratch, exactly as the
   boxed [meet]. *)
let[@inline] meet sc i plo phi =
  let wl = wlo_f plo and wh = whi_f phi in
  let nl = fmax sc.s_flo.(i) wl and nh = fmin sc.s_fhi.(i) wh in
  if nl > nh then raise_notrace Empty_projection;
  sc.s_blo.(i) <- nl;
  sc.s_bhi.(i) <- nh

(* Backward sweep from node [i], whose target is already in
   [s_blo]/[s_bhi]: project onto the children (a before b, as the boxed
   [back]) down to the variables' accumulators. *)
let rec back code base sc i =
  let flo = sc.s_flo and fhi = sc.s_fhi in
  let blo = sc.s_blo and bhi = sc.s_bhi in
  let tmp = sc.s_tmp in
  let o = op_at code base i in
  if o = op_const then ()
  else if o = op_var then begin
    (* boxed [record]: widen, then intersect with the accumulator *)
    let j = a_at code base i in
    let wl = wlo_f blo.(i) and wh = whi_f bhi.(i) in
    let nl = fmax sc.s_acc_lo.(j) wl and nh = fmin sc.s_acc_hi.(j) wh in
    if nl > nh then raise_notrace Empty_projection;
    sc.s_acc_lo.(j) <- nl;
    sc.s_acc_hi.(j) <- nh
  end
  else if o = op_neg then begin
    let ia = a_at code base i in
    meet sc ia (-.bhi.(i)) (-.blo.(i));
    back code base sc ia
  end
  else if o = op_add then begin
    let ia = a_at code base i and ib = b_at code base i in
    meet sc ia (blo.(i) -. fhi.(ib)) (bhi.(i) -. flo.(ib));
    back code base sc ia;
    meet sc ib (blo.(i) -. fhi.(ia)) (bhi.(i) -. flo.(ia));
    back code base sc ib
  end
  else if o = op_sub then begin
    let ia = a_at code base i and ib = b_at code base i in
    meet sc ia (blo.(i) +. flo.(ib)) (bhi.(i) +. fhi.(ib));
    back code base sc ia;
    meet sc ib (flo.(ia) -. bhi.(i)) (fhi.(ia) -. blo.(i));
    back code base sc ib
  end
  else if o = op_mul then begin
    let ia = a_at code base i and ib = b_at code base i in
    div_into tmp blo.(i) bhi.(i) flo.(ib) fhi.(ib);
    meet sc ia tmp.rlo tmp.rhi;
    back code base sc ia;
    div_into tmp blo.(i) bhi.(i) flo.(ia) fhi.(ia);
    meet sc ib tmp.rlo tmp.rhi;
    back code base sc ib
  end
  else if o = op_div then begin
    let ia = a_at code base i and ib = b_at code base i in
    mul_into tmp blo.(i) bhi.(i) flo.(ib) fhi.(ib);
    meet sc ia tmp.rlo tmp.rhi;
    back code base sc ia;
    div_into tmp flo.(ia) fhi.(ia) blo.(i) bhi.(i);
    meet sc ib tmp.rlo tmp.rhi;
    back code base sc ib
  end
  else if o = op_pow then begin
    let ia = a_at code base i and ex = b_at code base i in
    let zlo = blo.(i) and zhi = bhi.(i) in
    if ex = 0 then meet sc ia neg_infinity infinity
    else if ex mod 2 = 1 then meet sc ia (odd_root ex zlo) (odd_root ex zhi)
    else if zhi < 0. then raise_notrace Empty_projection
    else begin
      let r =
        if Float.is_finite zhi then zhi ** (1. /. float_of_int ex)
        else infinity
      in
      meet sc ia (-.r) r
    end;
    back code base sc ia
  end
  else if o = op_sqrt then begin
    let ia = a_at code base i in
    if bhi.(i) < 0. then raise_notrace Empty_projection;
    let l = fmax 0. blo.(i) in
    let phi = if Float.is_finite bhi.(i) then bhi.(i) *. bhi.(i) else infinity in
    meet sc ia (l *. l) phi;
    back code base sc ia
  end
  else if o = op_exp then begin
    let ia = a_at code base i in
    if bhi.(i) <= 0. then raise_notrace Empty_projection;
    let plo = if blo.(i) <= 0. then neg_infinity else log blo.(i) in
    let phi = if Float.is_finite bhi.(i) then log bhi.(i) else infinity in
    meet sc ia plo phi;
    back code base sc ia
  end
  else if o = op_ln then begin
    let ia = a_at code base i in
    let plo = if Float.is_finite blo.(i) then exp blo.(i) else 0. in
    let phi = if Float.is_finite bhi.(i) then exp bhi.(i) else infinity in
    meet sc ia plo phi;
    back code base sc ia
  end
  else if o = op_abs then begin
    let ia = a_at code base i in
    let h = fmax 0. bhi.(i) in
    meet sc ia (-.h) h;
    back code base sc ia
  end
  else if o = op_min then begin
    let ia = a_at code base i and ib = b_at code base i in
    (* an argument is bounded above only when the other certainly
       exceeds the target (boxed A_min case) *)
    if flo.(ib) > bhi.(i) then meet sc ia blo.(i) bhi.(i)
    else meet sc ia blo.(i) infinity;
    back code base sc ia;
    if flo.(ia) > bhi.(i) then meet sc ib blo.(i) bhi.(i)
    else meet sc ib blo.(i) infinity;
    back code base sc ib
  end
  else begin
    (* op_max *)
    let ia = a_at code base i and ib = b_at code base i in
    if fhi.(ib) < blo.(i) then meet sc ia blo.(i) bhi.(i)
    else meet sc ia neg_infinity bhi.(i);
    back code base sc ia;
    if fhi.(ia) < blo.(i) then meet sc ib blo.(i) bhi.(i)
    else meet sc ib neg_infinity bhi.(i);
    back code base sc ib
  end

let revise_kernel ks kid sc ~lo ~hi =
  match
    forward ks kid sc ~lo ~hi;
    let first = get ks.node_first kid in
    let r = get ks.node_first (kid + 1) - first - 1 in
    meet sc r (fget ks.targets (2 * kid)) (fget ks.targets ((2 * kid) + 1));
    back ks.code (3 * first) sc r
  with
  | () -> true
  | exception Empty_projection -> false

let eval_kernel ks kid sc ~lo ~hi =
  match forward ks kid sc ~lo ~hi with
  | () -> true
  | exception Empty_projection -> false
