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
   postorder opcode array plus preallocated scratch, so a revision is two
   array sweeps over floats that allocate nothing, on every operator.
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

type kernel = {
  k_op : int array;  (** opcode per node, postorder (root last) *)
  k_a : int array;  (** child index / var slot / constant slot *)
  k_b : int array;  (** second child index / integer exponent *)
  k_cval : float array;  (** constant pool *)
  k_vars : int array;
      (** distinct variable ids ([var_id] image), {!Expr.vars} order *)
  k_flo : float array;  (** forward-pass scratch, per node *)
  k_fhi : float array;
  k_blo : float array;  (** backward-pass target scratch, per node *)
  k_bhi : float array;
  k_acc_lo : float array;  (** per-variable narrowing accumulator, per slot *)
  k_acc_hi : float array;
  k_tmp : fpair;
  k_tlo : float;  (** constraint target *)
  k_thi : float;
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

let compile ~var_id e ~target =
  let n = Expr.size e in
  let op = Array.make n 0 and pa = Array.make n 0 and pb = Array.make n 0 in
  let consts = ref [] and n_consts = ref 0 in
  let names = Expr.vars e in
  let n_slots = List.length names in
  let slot_of : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri (fun i x -> Hashtbl.replace slot_of x i) names;
  let next = ref 0 in
  let emit o a b =
    let i = !next in
    op.(i) <- o;
    pa.(i) <- a;
    pb.(i) <- b;
    incr next;
    i
  in
  let rec go = function
    | Expr.Const c ->
      let ci = !n_consts in
      consts := c :: !consts;
      incr n_consts;
      emit op_const ci 0
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
  assert (root = n - 1);
  {
    k_op = op;
    k_a = pa;
    k_b = pb;
    k_cval = Array.of_list (List.rev !consts);
    k_vars = Array.of_list (List.map var_id names);
    k_flo = Array.make n 0.;
    k_fhi = Array.make n 0.;
    k_blo = Array.make n 0.;
    k_bhi = Array.make n 0.;
    k_acc_lo = Array.make (max 1 n_slots) 0.;
    k_acc_hi = Array.make (max 1 n_slots) 0.;
    k_tmp = { rlo = 0.; rhi = 0. };
    k_tlo = Interval.lo target;
    k_thi = Interval.hi target;
  }

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
   accumulators, then evaluate every node bottom-up into [k_flo]/[k_fhi]
   (the boxed [annotate]). Raises [Empty_projection] where [annotate]
   does: [sqrt] or [ln] of a box with no point in their domain. *)
let forward k ~lo ~hi =
  let vars = k.k_vars in
  let acc_lo = k.k_acc_lo and acc_hi = k.k_acc_hi in
  for j = 0 to Array.length vars - 1 do
    let v = vars.(j) in
    acc_lo.(j) <- lo.(v);
    acc_hi.(j) <- hi.(v)
  done;
  let op = k.k_op and pa = k.k_a and pb = k.k_b in
  let flo = k.k_flo and fhi = k.k_fhi in
  let tmp = k.k_tmp in
  for i = 0 to Array.length op - 1 do
    let o = op.(i) in
    if o = op_const then begin
      let c = k.k_cval.(pa.(i)) in
      flo.(i) <- c;
      fhi.(i) <- c
    end
    else if o = op_var then begin
      let j = pa.(i) in
      flo.(i) <- acc_lo.(j);
      fhi.(i) <- acc_hi.(j)
    end
    else if o = op_neg then begin
      let ia = pa.(i) in
      flo.(i) <- -.fhi.(ia);
      fhi.(i) <- -.flo.(ia)
    end
    else if o = op_add then begin
      let ia = pa.(i) and ib = pb.(i) in
      flo.(i) <- flo.(ia) +. flo.(ib);
      fhi.(i) <- fhi.(ia) +. fhi.(ib)
    end
    else if o = op_sub then begin
      let ia = pa.(i) and ib = pb.(i) in
      flo.(i) <- flo.(ia) -. fhi.(ib);
      fhi.(i) <- fhi.(ia) -. flo.(ib)
    end
    else if o = op_mul then begin
      let ia = pa.(i) and ib = pb.(i) in
      mul_into tmp flo.(ia) fhi.(ia) flo.(ib) fhi.(ib);
      flo.(i) <- tmp.rlo;
      fhi.(i) <- tmp.rhi
    end
    else if o = op_div then begin
      let ia = pa.(i) and ib = pb.(i) in
      div_into tmp flo.(ia) fhi.(ia) flo.(ib) fhi.(ib);
      flo.(i) <- tmp.rlo;
      fhi.(i) <- tmp.rhi
    end
    else if o = op_pow then begin
      let ia = pa.(i) in
      tmp.rlo <- flo.(ia);
      tmp.rhi <- fhi.(ia);
      pow_in_place tmp pb.(i);
      flo.(i) <- tmp.rlo;
      fhi.(i) <- tmp.rhi
    end
    else if o = op_sqrt then begin
      let ia = pa.(i) in
      if fhi.(ia) < 0. then raise_notrace Empty_projection;
      flo.(i) <- sqrt (fmax 0. flo.(ia));
      fhi.(i) <- sqrt fhi.(ia)
    end
    else if o = op_exp then begin
      let ia = pa.(i) in
      flo.(i) <- exp flo.(ia);
      fhi.(i) <- exp fhi.(ia)
    end
    else if o = op_ln then begin
      let ia = pa.(i) in
      if fhi.(ia) <= 0. then raise_notrace Empty_projection;
      flo.(i) <- (if flo.(ia) <= 0. then neg_infinity else log flo.(ia));
      fhi.(i) <- log fhi.(ia)
    end
    else if o = op_abs then begin
      let ia = pa.(i) in
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
      let ia = pa.(i) and ib = pb.(i) in
      flo.(i) <- fmin flo.(ia) flo.(ib);
      fhi.(i) <- fmin fhi.(ia) fhi.(ib)
    end
    else begin
      (* op_max *)
      let ia = pa.(i) and ib = pb.(i) in
      flo.(i) <- fmax flo.(ia) flo.(ib);
      fhi.(i) <- fmax fhi.(ia) fhi.(ib)
    end
  done

(* [meet k i plo phi]: widen the projected target and intersect it with
   node [i]'s forward interval into the backward scratch, exactly as the
   boxed [meet]. *)
let[@inline] meet k i plo phi =
  let wl = wlo_f plo and wh = whi_f phi in
  let nl = fmax k.k_flo.(i) wl and nh = fmin k.k_fhi.(i) wh in
  if nl > nh then raise_notrace Empty_projection;
  k.k_blo.(i) <- nl;
  k.k_bhi.(i) <- nh

(* Backward sweep from node [i], whose target is already in
   [k_blo]/[k_bhi]: project onto the children (a before b, as the boxed
   [back]) down to the variables' accumulators. *)
let rec back k i =
  let op = k.k_op and pa = k.k_a and pb = k.k_b in
  let flo = k.k_flo and fhi = k.k_fhi in
  let blo = k.k_blo and bhi = k.k_bhi in
  let tmp = k.k_tmp in
  let o = op.(i) in
  if o = op_const then ()
  else if o = op_var then begin
    (* boxed [record]: widen, then intersect with the accumulator *)
    let j = pa.(i) in
    let wl = wlo_f blo.(i) and wh = whi_f bhi.(i) in
    let nl = fmax k.k_acc_lo.(j) wl and nh = fmin k.k_acc_hi.(j) wh in
    if nl > nh then raise_notrace Empty_projection;
    k.k_acc_lo.(j) <- nl;
    k.k_acc_hi.(j) <- nh
  end
  else if o = op_neg then begin
    let ia = pa.(i) in
    meet k ia (-.bhi.(i)) (-.blo.(i));
    back k ia
  end
  else if o = op_add then begin
    let ia = pa.(i) and ib = pb.(i) in
    meet k ia (blo.(i) -. fhi.(ib)) (bhi.(i) -. flo.(ib));
    back k ia;
    meet k ib (blo.(i) -. fhi.(ia)) (bhi.(i) -. flo.(ia));
    back k ib
  end
  else if o = op_sub then begin
    let ia = pa.(i) and ib = pb.(i) in
    meet k ia (blo.(i) +. flo.(ib)) (bhi.(i) +. fhi.(ib));
    back k ia;
    meet k ib (flo.(ia) -. bhi.(i)) (fhi.(ia) -. blo.(i));
    back k ib
  end
  else if o = op_mul then begin
    let ia = pa.(i) and ib = pb.(i) in
    div_into tmp blo.(i) bhi.(i) flo.(ib) fhi.(ib);
    meet k ia tmp.rlo tmp.rhi;
    back k ia;
    div_into tmp blo.(i) bhi.(i) flo.(ia) fhi.(ia);
    meet k ib tmp.rlo tmp.rhi;
    back k ib
  end
  else if o = op_div then begin
    let ia = pa.(i) and ib = pb.(i) in
    mul_into tmp blo.(i) bhi.(i) flo.(ib) fhi.(ib);
    meet k ia tmp.rlo tmp.rhi;
    back k ia;
    div_into tmp flo.(ia) fhi.(ia) blo.(i) bhi.(i);
    meet k ib tmp.rlo tmp.rhi;
    back k ib
  end
  else if o = op_pow then begin
    let ia = pa.(i) and ex = pb.(i) in
    let zlo = blo.(i) and zhi = bhi.(i) in
    if ex = 0 then meet k ia neg_infinity infinity
    else if ex mod 2 = 1 then meet k ia (odd_root ex zlo) (odd_root ex zhi)
    else if zhi < 0. then raise_notrace Empty_projection
    else begin
      let r =
        if Float.is_finite zhi then zhi ** (1. /. float_of_int ex)
        else infinity
      in
      meet k ia (-.r) r
    end;
    back k ia
  end
  else if o = op_sqrt then begin
    let ia = pa.(i) in
    if bhi.(i) < 0. then raise_notrace Empty_projection;
    let l = fmax 0. blo.(i) in
    let phi = if Float.is_finite bhi.(i) then bhi.(i) *. bhi.(i) else infinity in
    meet k ia (l *. l) phi;
    back k ia
  end
  else if o = op_exp then begin
    let ia = pa.(i) in
    if bhi.(i) <= 0. then raise_notrace Empty_projection;
    let plo = if blo.(i) <= 0. then neg_infinity else log blo.(i) in
    let phi = if Float.is_finite bhi.(i) then log bhi.(i) else infinity in
    meet k ia plo phi;
    back k ia
  end
  else if o = op_ln then begin
    let ia = pa.(i) in
    let plo = if Float.is_finite blo.(i) then exp blo.(i) else 0. in
    let phi = if Float.is_finite bhi.(i) then exp bhi.(i) else infinity in
    meet k ia plo phi;
    back k ia
  end
  else if o = op_abs then begin
    let ia = pa.(i) in
    let h = fmax 0. bhi.(i) in
    meet k ia (-.h) h;
    back k ia
  end
  else if o = op_min then begin
    let ia = pa.(i) and ib = pb.(i) in
    (* an argument is bounded above only when the other certainly
       exceeds the target (boxed A_min case) *)
    if flo.(ib) > bhi.(i) then meet k ia blo.(i) bhi.(i)
    else meet k ia blo.(i) infinity;
    back k ia;
    if flo.(ia) > bhi.(i) then meet k ib blo.(i) bhi.(i)
    else meet k ib blo.(i) infinity;
    back k ib
  end
  else begin
    (* op_max *)
    let ia = pa.(i) and ib = pb.(i) in
    if fhi.(ib) < blo.(i) then meet k ia blo.(i) bhi.(i)
    else meet k ia neg_infinity bhi.(i);
    back k ia;
    if fhi.(ia) < blo.(i) then meet k ib blo.(i) bhi.(i)
    else meet k ib neg_infinity bhi.(i);
    back k ib
  end

let revise_kernel k ~lo ~hi =
  match
    forward k ~lo ~hi;
    let r = Array.length k.k_op - 1 in
    meet k r k.k_tlo k.k_thi;
    back k r
  with
  | () -> true
  | exception Empty_projection -> false

let eval_kernel k ~lo ~hi =
  match forward k ~lo ~hi with
  | () -> true
  | exception Empty_projection -> false
