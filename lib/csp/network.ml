open Adpm_interval
open Adpm_expr

type prop = {
  p_name : string;
  p_id : int;
  p_initial : Domain.t;
  mutable p_assigned : Value.t option;
  mutable p_feasible : Domain.t;
  p_meta : (string * string) list;
}

type pstate = {
  ps_lo : float array;
  ps_hi : float array;
  ps_mask : bool array;
  ps_empties : (int, unit) Hashtbl.t;
}

type t = {
  props : (string, prop) Hashtbl.t;
  mutable prop_order : string list; (* reversed insertion order *)
  mutable by_id : prop array; (* dense, index = p_id *)
  constrs : (int, Constr.t) Hashtbl.t;
  mutable constr_order : int list; (* reversed *)
  adjacency : (string, int list) Hashtbl.t; (* reversed per prop *)
  mutable statuses : Constr.status array; (* dense, index = constraint id *)
  declared_mono : (int * int, Monotone.direction) Hashtbl.t;
  (* key: (constraint id, prop id) *)
  mutable next_cid : int;
  mutable n_rev : int;
  mutable n_struct : int;
  (* Structural revision: bumped only by add_prop/add_constraint/
     declare_monotone. The derived views below are keyed on it rather
     than on [n_rev], which also moves on every assignment and status
     update. *)
  mutable n_digest : int;
  (* hash chain over the same structural calls and their arguments *)
  mutable c_list_cache : (int * Constr.t list) option;
  mutable c_arr_cache : (int * Constr.t array) option;
  mutable adj_cache : (int * int array array) option;
  mutable k_arr_cache : (int * Hc4.kernel array) option;
  mutable arg_ids_cache : (int * int array array) option;
  (* Compiled HC4 kernels by constraint id. Kernels carry mutable scratch,
     so a network must stay within one domain — which holds: every
     simulation run builds its own network. *)
  dirty : (string, unit) Hashtbl.t;
  mutable n_pstate : pstate option;
}

let create () =
  {
    props = Hashtbl.create 64;
    prop_order = [];
    by_id = [||];
    constrs = Hashtbl.create 64;
    constr_order = [];
    adjacency = Hashtbl.create 64;
    statuses = [||];
    declared_mono = Hashtbl.create 16;
    next_cid = 0;
    n_rev = 0;
    n_struct = 0;
    n_digest = 0;
    c_list_cache = None;
    c_arr_cache = None;
    adj_cache = None;
    k_arr_cache = None;
    arg_ids_cache = None;
    dirty = Hashtbl.create 16;
    n_pstate = None;
  }

let bump t = t.n_rev <- t.n_rev + 1

let bump_struct t step =
  t.n_struct <- t.n_struct + 1;
  t.n_digest <- Hashtbl.hash_param 64 256 (t.n_digest, step);
  bump t

let structure_digest t = t.n_digest
let structure_revision t = t.n_struct

let revision t = t.n_rev
let mark_dirty t name = Hashtbl.replace t.dirty name ()
let dirty_props t = Hashtbl.fold (fun name () acc -> name :: acc) t.dirty []
let clear_dirty t = Hashtbl.reset t.dirty
let prop_state t = t.n_pstate

let store_prop_state t ps =
  t.n_pstate <- Some ps;
  bump t

let invalidate_prop_state t = t.n_pstate <- None

let add_prop t ?(meta = []) name domain =
  if Hashtbl.mem t.props name then
    invalid_arg (Printf.sprintf "Network.add_prop: duplicate property %s" name);
  if Domain.is_empty domain then
    invalid_arg (Printf.sprintf "Network.add_prop: empty initial domain for %s" name);
  let p =
    { p_name = name; p_id = Array.length t.by_id; p_initial = domain;
      p_assigned = None; p_feasible = domain; p_meta = meta }
  in
  Hashtbl.replace t.props name p;
  t.prop_order <- name :: t.prop_order;
  t.by_id <- Array.append t.by_id [| p |];
  (* structural change: any persisted propagation state is stale *)
  invalidate_prop_state t;
  bump_struct t (`Prop (name, domain))

let prop_names t = List.rev t.prop_order

let find_prop t name =
  match Hashtbl.find_opt t.props name with
  | Some p -> p
  | None ->
    invalid_arg (Printf.sprintf "Network.find_prop: unknown property '%s'" name)

let mem_prop t name = Hashtbl.mem t.props name
let prop_count t = Array.length t.by_id
let prop_by_id t id = t.by_id.(id)
let prop_id t name = (find_prop t name).p_id
let initial_domain t name = (find_prop t name).p_initial
let feasible t name = (find_prop t name).p_feasible
let set_feasible t name d =
  (find_prop t name).p_feasible <- d;
  bump t

let reset_feasible t =
  Hashtbl.iter (fun _ p -> p.p_feasible <- p.p_initial) t.props;
  bump t

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
  p.p_assigned <- Some value;
  mark_dirty t p.p_name;
  bump t

let assign t name value =
  let p = find_prop t name in
  check_value p value;
  set_assigned t p value

let assign_id t id value =
  let p = t.by_id.(id) in
  check_value p value;
  set_assigned t p value

let unassign t name =
  (find_prop t name).p_assigned <- None;
  mark_dirty t name;
  bump t
let assigned t name = (find_prop t name).p_assigned

let assigned_num t name =
  match assigned t name with
  | Some (Value.Num x) -> Some x
  | Some (Value.Sym _) | None -> None

let is_bound t name = assigned t name <> None

let all_numeric_bound t =
  let rec from i =
    i >= Array.length t.by_id
    ||
    let p = t.by_id.(i) in
    ((not (Domain.is_numeric p.p_initial)) || p.p_assigned <> None)
    && from (i + 1)
  in
  from 0

let box t name =
  let p = find_prop t name in
  match p.p_assigned with
  | Some (Value.Num x) -> Some (Interval.of_point x)
  | Some (Value.Sym _) -> None
  | None -> Domain.hull p.p_initial

let env_box t name =
  match box t name with
  | Some iv -> iv
  | None -> raise (Expr.Unbound_variable name)

let env_point t name =
  match assigned_num t name with
  | Some x -> x
  | None -> raise (Expr.Unbound_variable name)

let add_constraint t ~name lhs rel rhs =
  let c = Constr.make ~id:t.next_cid ~name lhs rel rhs in
  List.iter
    (fun arg ->
      (match Hashtbl.find_opt t.props arg with
      | None ->
        invalid_arg
          (Printf.sprintf "Network.add_constraint: unknown property %s in %s" arg name)
      | Some p ->
        if not (Domain.is_numeric p.p_initial) then
          invalid_arg
            (Printf.sprintf
               "Network.add_constraint: symbolic property %s in %s" arg name));
      let prev = Option.value ~default:[] (Hashtbl.find_opt t.adjacency arg) in
      Hashtbl.replace t.adjacency arg (c.Constr.id :: prev))
    (Constr.args c);
  Hashtbl.replace t.constrs c.Constr.id c;
  t.constr_order <- c.Constr.id :: t.constr_order;
  t.statuses <- Array.append t.statuses [| Constr.Consistent |];
  t.next_cid <- t.next_cid + 1;
  invalidate_prop_state t;
  bump_struct t (`Constraint (name, lhs, rel, rhs));
  c

let find_constraint t id =
  match Hashtbl.find_opt t.constrs id with
  | Some c -> c
  | None ->
    invalid_arg (Printf.sprintf "Network.find_constraint: unknown constraint id %d" id)

let constraints t =
  match t.c_list_cache with
  | Some (r, cs) when r = t.n_struct -> cs
  | _ ->
    let cs = List.rev_map (fun id -> find_constraint t id) t.constr_order in
    t.c_list_cache <- Some (t.n_struct, cs);
    cs

let constraint_array t =
  match t.c_arr_cache with
  | Some (r, arr) when r = t.n_struct -> arr
  | _ ->
    (* constraint ids are dense (allocated 0,1,2,.. and never removed), so
       the array is indexed directly by id *)
    let arr = Array.of_list (constraints t) in
    Array.iteri
      (fun i c -> assert (c.Constr.id = i))
      arr;
    t.c_arr_cache <- Some (t.n_struct, arr);
    arr

let constraint_count t = Hashtbl.length t.constrs

let constraints_of_prop t name =
  match Hashtbl.find_opt t.adjacency name with
  | None ->
    if not (Hashtbl.mem t.props name) then
      invalid_arg
        (Printf.sprintf "Network.constraints_of_prop: unknown property '%s'" name);
    []
  | Some ids -> List.rev_map (fun id -> find_constraint t id) ids

let adjacency_by_id t =
  match t.adj_cache with
  | Some (r, arr) when r = t.n_struct -> arr
  | _ ->
    let arr =
      Array.map
        (fun p ->
          match Hashtbl.find_opt t.adjacency p.p_name with
          | None -> [||]
          | Some ids ->
            (* stored reversed; emit insertion order *)
            let a = Array.of_list ids in
            let n = Array.length a in
            Array.init n (fun i -> a.(n - 1 - i)))
        t.by_id
    in
    t.adj_cache <- Some (t.n_struct, arr);
    arr

let kernel_array t =
  match t.k_arr_cache with
  | Some (r, ks) when r = t.n_struct -> ks
  | prev ->
    (* constraints are only ever appended and a kernel depends on its own
       constraint and the (stable) prop ids alone, so the kernels of an
       earlier structure carry over *)
    let old = match prev with Some (_, ks) -> ks | None -> [||] in
    let ks =
      Array.mapi
        (fun i c ->
          if i < Array.length old then old.(i)
          else
            Hc4.compile
              ~var_id:(fun x -> (find_prop t x).p_id)
              (Constr.diff c) ~target:(Constr.target c))
        (constraint_array t)
    in
    t.k_arr_cache <- Some (t.n_struct, ks);
    ks

let arg_ids t =
  match t.arg_ids_cache with
  | Some (r, arr) when r = t.n_struct -> arr
  | _ ->
    (* the adjacency inverted: no lookup by name *)
    let adj = adjacency_by_id t in
    let acc = Array.make (constraint_count t) [] in
    for pid = Array.length adj - 1 downto 0 do
      Array.iter (fun cid -> acc.(cid) <- pid :: acc.(cid)) adj.(pid)
    done;
    let arr = Array.map Array.of_list acc in
    t.arg_ids_cache <- Some (t.n_struct, arr);
    arr

let status t id =
  if id >= 0 && id < Array.length t.statuses then t.statuses.(id)
  else Constr.Consistent

let set_status t id s =
  if id < 0 || id >= Array.length t.statuses then
    invalid_arg (Printf.sprintf "Network.set_status: unknown constraint id %d" id);
  t.statuses.(id) <- s;
  bump t

let reset_statuses t =
  Array.fill t.statuses 0 (Array.length t.statuses) Constr.Consistent;
  bump t

let violated t =
  List.filter (fun c -> status t c.Constr.id = Constr.Violated) (constraints t)

let beta t name = List.length (constraints_of_prop t name)

let alpha t name =
  List.length
    (List.filter
       (fun c -> status t c.Constr.id = Constr.Violated)
       (constraints_of_prop t name))

let declare_monotone t cid prop dir =
  Hashtbl.replace t.declared_mono (cid, prop_id t prop) dir;
  bump_struct t (`Monotone (cid, prop, dir))

let diff_direction t c prop =
  let declared =
    match Hashtbl.find_opt t.props prop with
    | Some p -> Hashtbl.find_opt t.declared_mono (c.Constr.id, p.p_id)
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

let reset_assignments t =
  Hashtbl.iter (fun _ p -> p.p_assigned <- None) t.props;
  invalidate_prop_state t;
  clear_dirty t;
  bump t

let pp_summary ppf t =
  Format.fprintf ppf "network: %d properties, %d constraints, %d violated"
    (Hashtbl.length t.props) (constraint_count t) (List.length (violated t))
