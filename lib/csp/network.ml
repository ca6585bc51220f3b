open Adpm_interval
open Adpm_expr

type prop = {
  p_name : string;
  p_id : int;
  p_initial : Domain.t;
  p_meta : (string * string) list;
}

type pstate = {
  ps_lo : float array;
  ps_hi : float array;
  ps_mask : bool array;
  ps_empties : (int, unit) Hashtbl.t;
  ps_feasible : Domain.t array;
  ps_status : Constr.status array;
}

type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type adjacency = { adj_first : ints; adj_cids : ints }

(* The dense views of one structure, compiled together on first use.
   What lives as long as a compiled scenario stays off the OCaml heap
   where the hot path allows (see [Hc4.kernels]). *)
type views = {
  v_list : Constr.t list;
  v_adj : adjacency;
  v_args : int array array; (* cid -> prop ids, ascending *)
  v_kernels : Hc4.kernels; (* kernel i: constraint i *)
}

(* Properties, constraints and declarations: mutable while a network is
   elaborated, shared read-only by every instance once frozen. *)
type shape = {
  props : (string, prop) Hashtbl.t;
  mutable by_id : prop array; (* dense, index = p_id *)
  mutable constrs : Constr.t array; (* dense, index = constraint id *)
  mutable adj_rev : int list array;
      (* prop id -> cids, reversed; only [compile] reads it, and a frozen
         shape has no use for it *)
  declared_mono : (int * int, Monotone.direction) Hashtbl.t;
  (* key: (constraint id, prop id) *)
  mutable views : views option; (* dropped by every structural call *)
  mutable frozen : bool;
}

type t = {
  sh : shape;
  mutable assigned : Value.t option array; (* by prop id *)
  mutable feasible : Domain.t array; (* by prop id *)
  mutable statuses : Constr.status array; (* by constraint id *)
  mutable n_rev : int;
  dirty : (string, unit) Hashtbl.t;
  mutable n_pstate : pstate option;
}

let create () =
  {
    sh =
      {
        props = Hashtbl.create 64;
        by_id = [||];
        constrs = [||];
        adj_rev = [||];
        declared_mono = Hashtbl.create 16;
        views = None;
        frozen = false;
      };
    assigned = [||];
    feasible = [||];
    statuses = [||];
    n_rev = 0;
    dirty = Hashtbl.create 16;
    n_pstate = None;
  }

let bump t = t.n_rev <- t.n_rev + 1
let revision t = t.n_rev
let mark_dirty t name = Hashtbl.replace t.dirty name ()
let dirty_props t = Hashtbl.fold (fun name () acc -> name :: acc) t.dirty []
let clear_dirty t = Hashtbl.reset t.dirty
let prop_state t = t.n_pstate

let store_prop_state t ps =
  t.n_pstate <- Some ps;
  bump t

let invalidate_prop_state t = t.n_pstate <- None

(* Structural calls are refused once the shape is shared. *)
let check_open t what =
  if t.sh.frozen then
    invalid_arg
      (Printf.sprintf
         "Network.%s: the structure is compiled and shared; elaborate a fresh \
          network to change it"
         what)

(* A new property or constraint: the compiled views of the old shape are
   dropped, to be compiled again on next use. *)
let restructure t what =
  check_open t what;
  t.sh.views <- None;
  invalidate_prop_state t;
  bump t

let add_prop t ?(meta = []) name domain =
  let sh = t.sh in
  if Hashtbl.mem sh.props name then
    invalid_arg (Printf.sprintf "Network.add_prop: duplicate property %s" name);
  if Domain.is_empty domain then
    invalid_arg (Printf.sprintf "Network.add_prop: empty initial domain for %s" name);
  restructure t "add_prop";
  let p =
    { p_name = name; p_id = Array.length sh.by_id; p_initial = domain; p_meta = meta }
  in
  Hashtbl.replace sh.props name p;
  sh.by_id <- Array.append sh.by_id [| p |];
  sh.adj_rev <- Array.append sh.adj_rev [| [] |];
  t.assigned <- Array.append t.assigned [| None |];
  t.feasible <- Array.append t.feasible [| domain |]

let prop_names t = Array.fold_right (fun p acc -> p.p_name :: acc) t.sh.by_id []

let find_prop t name =
  match Hashtbl.find_opt t.sh.props name with
  | Some p -> p
  | None ->
    invalid_arg (Printf.sprintf "Network.find_prop: unknown property '%s'" name)

let mem_prop t name = Hashtbl.mem t.sh.props name
let prop_count t = Array.length t.sh.by_id
let prop_by_id t id = t.sh.by_id.(id)
let prop_id t name = (find_prop t name).p_id
let initial_domain t name = (find_prop t name).p_initial
let feasible t name = t.feasible.((find_prop t name).p_id)
let feasible_id t pid = t.feasible.(pid)
let assigned_id t pid = t.assigned.(pid)

let check_value p value =
  let name = p.p_name in
  match (value, p.p_initial) with
  | Value.Num x, (Domain.Continuous _ | Domain.Finite _) ->
    (match Domain.hull p.p_initial with
    | Some iv when Interval.mem x iv -> ()
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "Network.assign: %g outside initial range of %s" x name))
  | Value.Sym s, Domain.Symbolic _ ->
    if not (Domain.mem_sym s p.p_initial) then
      invalid_arg
        (Printf.sprintf "Network.assign: %s outside initial range of %s" s name)
  | Value.Num _, (Domain.Symbolic _ | Domain.Empty)
  | Value.Sym _, (Domain.Continuous _ | Domain.Finite _ | Domain.Empty) ->
    invalid_arg (Printf.sprintf "Network.assign: kind mismatch for %s" name)

let check_assign t name value =
  let p = find_prop t name in
  check_value p value;
  p.p_id

let set_assigned t p value =
  t.assigned.(p.p_id) <- Some value;
  mark_dirty t p.p_name;
  bump t

let assign t name value =
  let p = find_prop t name in
  check_value p value;
  set_assigned t p value

let assign_id t id value =
  let p = t.sh.by_id.(id) in
  check_value p value;
  set_assigned t p value

let unassign t name =
  t.assigned.((find_prop t name).p_id) <- None;
  mark_dirty t name;
  bump t

let assigned t name = t.assigned.((find_prop t name).p_id)

let assigned_num t name =
  match assigned t name with
  | Some (Value.Num x) -> Some x
  | Some (Value.Sym _) | None -> None

let is_bound t name = assigned t name <> None

let all_numeric_bound t =
  let by_id = t.sh.by_id in
  let rec from i =
    i >= Array.length by_id
    || ((not (Domain.is_numeric by_id.(i).p_initial)) || t.assigned.(i) <> None)
       && from (i + 1)
  in
  from 0

let box t name =
  let p = find_prop t name in
  match t.assigned.(p.p_id) with
  | Some (Value.Num x) -> Some (Interval.of_point x)
  | Some (Value.Sym _) -> None
  | None -> Domain.hull p.p_initial

let env_point t name =
  match assigned_num t name with
  | Some x -> x
  | None -> raise (Expr.Unbound_variable name)

let add_constraint t ~name lhs rel rhs =
  let sh = t.sh in
  let c = Constr.make ~id:(Array.length sh.constrs) ~name lhs rel rhs in
  List.iter
    (fun arg ->
      match Hashtbl.find_opt sh.props arg with
      | None ->
        invalid_arg
          (Printf.sprintf "Network.add_constraint: unknown property %s in %s" arg name)
      | Some p ->
        if not (Domain.is_numeric p.p_initial) then
          invalid_arg
            (Printf.sprintf
               "Network.add_constraint: symbolic property %s in %s" arg name))
    (Constr.args c);
  restructure t "add_constraint";
  List.iter
    (fun arg ->
      let pid = (Hashtbl.find sh.props arg).p_id in
      sh.adj_rev.(pid) <- c.Constr.id :: sh.adj_rev.(pid))
    (Constr.args c);
  sh.constrs <- Array.append sh.constrs [| c |];
  t.statuses <- Array.append t.statuses [| Constr.Consistent |];
  c

let constraint_count t = Array.length t.sh.constrs
let[@inline] get (a : ints) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

let find_constraint t id =
  if id >= 0 && id < constraint_count t then t.sh.constrs.(id)
  else
    invalid_arg (Printf.sprintf "Network.find_constraint: unknown constraint id %d" id)

(* {2 Compiled views} *)

let compile sh =
  let arr = sh.constrs in
  (* stored reversed; emit insertion order *)
  let adj = Array.map (fun ids -> Array.of_list (List.rev ids)) sh.adj_rev in
  let int32s a =
    Bigarray.Array1.init Bigarray.int32 Bigarray.c_layout (Array.length a)
      (fun i -> Int32.of_int a.(i))
  in
  let first = Array.make (Array.length adj + 1) 0 in
  Array.iteri (fun pid row -> first.(pid + 1) <- first.(pid) + Array.length row) adj;
  (* the adjacency inverted: no lookup by name *)
  let acc = Array.make (Array.length arr) [] in
  for pid = Array.length adj - 1 downto 0 do
    Array.iter (fun cid -> acc.(cid) <- pid :: acc.(cid)) adj.(pid)
  done;
  let var_id x = (Hashtbl.find sh.props x).p_id in
  {
    v_list = Array.to_list arr;
    v_adj =
      { adj_first = int32s first; adj_cids = int32s (Array.concat (Array.to_list adj)) };
    v_args = Array.map Array.of_list acc;
    v_kernels =
      Hc4.compile_set ~var_id
        (Array.map (fun c -> (Constr.diff c, Constr.target c)) arr);
  }

let views t =
  match t.sh.views with
  | Some v -> v
  | None ->
    let v = compile t.sh in
    t.sh.views <- Some v;
    v

let constraints_of_prop t name =
  match Hashtbl.find_opt t.sh.props name with
  | None ->
    invalid_arg
      (Printf.sprintf "Network.constraints_of_prop: unknown property '%s'" name)
  | Some p ->
    let a = (views t).v_adj in
    let acc = ref [] in
    for i = get a.adj_first (p.p_id + 1) - 1 downto get a.adj_first p.p_id do
      acc := t.sh.constrs.(get a.adj_cids i) :: !acc
    done;
    !acc

let constraints t = (views t).v_list
let constraint_array t = t.sh.constrs
let adjacency t = (views t).v_adj

let arg_ids t = (views t).v_args

let kernels t = (views t).v_kernels

let scratch t =
  let ks = kernels t in
  Hc4.scratch ~nodes:(Hc4.max_nodes ks) ~slots:(Hc4.max_slots ks)

(* {2 Templates and instances} *)

let freeze t =
  if not t.sh.frozen then begin
    ignore (views t : views);
    t.sh.adj_rev <- [||];
    t.sh.frozen <- true
  end

let frozen t = t.sh.frozen

type snapshot = {
  sn_statuses : Constr.status array;
  sn_rev : int;
  sn_dirty : string list;
  sn_pstate : pstate;
}

(* A snapshot need not keep the subspaces: the stored result holds the
   very domains the network's subspaces point to once applied. *)
let snapshot t =
  match t.n_pstate with
  | Some ps when Array.for_all2 ( == ) t.feasible ps.ps_feasible ->
    {
      sn_statuses = Array.copy t.statuses;
      sn_rev = t.n_rev;
      sn_dirty = dirty_props t;
      sn_pstate = ps;
    }
  | Some _ | None ->
    invalid_arg "Network.snapshot: no propagation result to take"

(* [t]'s structure, a copy of its state *)
let copy t =
  {
    sh = t.sh;
    assigned = Array.copy t.assigned;
    feasible = Array.copy t.feasible;
    statuses = Array.copy t.statuses;
    n_rev = t.n_rev;
    dirty = Hashtbl.copy t.dirty;
    n_pstate = t.n_pstate;
  }

let instantiate ?at t =
  if not t.sh.frozen then invalid_arg "Network.instantiate: the network is not frozen";
  match at with
  | None -> copy t
  | Some sn ->
    let dirty = Hashtbl.create 16 in
    List.iter (fun name -> Hashtbl.replace dirty name ()) sn.sn_dirty;
    {
      sh = t.sh;
      assigned = Array.copy t.assigned;
      feasible = Array.copy sn.sn_pstate.ps_feasible;
      statuses = Array.copy sn.sn_statuses;
      n_rev = sn.sn_rev;
      dirty;
      n_pstate = Some sn.sn_pstate;
    }

let status t id =
  if id >= 0 && id < Array.length t.statuses then t.statuses.(id)
  else Constr.Consistent

(* Writes only what differs: an unchanged subspace keeps its pointer. *)
let set_result t ~feasible ~statuses =
  if
    Array.length feasible <> Array.length t.feasible
    || Array.length statuses <> Array.length t.statuses
  then invalid_arg "Network.set_result: result of another structure";
  let cur = t.feasible in
  for pid = 0 to Array.length cur - 1 do
    let d = feasible.(pid) in
    if cur.(pid) != d then cur.(pid) <- d
  done;
  let cur = t.statuses in
  for cid = 0 to Array.length cur - 1 do
    let s = statuses.(cid) in
    if cur.(cid) <> s then cur.(cid) <- s
  done;
  bump t

let set_status t id s =
  if id < 0 || id >= Array.length t.statuses then
    invalid_arg (Printf.sprintf "Network.set_status: unknown constraint id %d" id);
  t.statuses.(id) <- s;
  bump t

let beta t name = List.length (constraints_of_prop t name)

let alpha t name =
  List.length
    (List.filter
       (fun c -> status t c.Constr.id = Constr.Violated)
       (constraints_of_prop t name))

let declare_monotone t cid prop dir =
  let pid = prop_id t prop in
  check_open t "declare_monotone";
  Hashtbl.replace t.sh.declared_mono (cid, pid) dir;
  bump t

let diff_direction t c prop =
  let declared =
    match Hashtbl.find_opt t.sh.props prop with
    | Some p -> Hashtbl.find_opt t.sh.declared_mono (c.Constr.id, p.p_id)
    | None -> None
  in
  match declared with
  | Some dir -> dir
  | None ->
    let env name =
      match Domain.hull (initial_domain t name) with
      | Some iv -> iv
      | None -> raise Not_found
    in
    (try Monotone.direction ~env (Constr.diff c) prop
     with Not_found -> Monotone.Unknown)

let helps_direction t c prop =
  let dir = diff_direction t c prop in
  match (c.Constr.rel, dir) with
  | _, (Monotone.Constant | Monotone.Unknown) -> `None
  | Constr.Le, Monotone.Increasing -> `Down (* shrinking lhs-rhs helps *)
  | Constr.Le, Monotone.Decreasing -> `Up
  | Constr.Ge, Monotone.Increasing -> `Up
  | Constr.Ge, Monotone.Decreasing -> `Down
  | Constr.Eq, (Monotone.Increasing | Monotone.Decreasing) -> `None

let check_constraint_point t c = Constr.check_point (env_point t) c

let solved t =
  all_numeric_bound t
  && List.for_all (fun c -> check_constraint_point t c) (constraints t)
