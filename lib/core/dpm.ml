open Adpm_interval
open Adpm_csp
open Adpm_trace

type mode = Conventional | Adpm

let mode_to_string = function Conventional -> "conventional" | Adpm -> "ADPM"

let mode_of_string = function
  | "conventional" -> Some Conventional
  | "ADPM" | "adpm" -> Some Adpm
  | _ -> None

type result = {
  r_index : int;
  r_evaluations : int;
  r_newly_violated : int list;
  r_resolved : int list;
  r_status_changes : (int * Constr.status * Constr.status) list;
  r_skipped : int list;
  r_notifications : Notify.notification list;
  r_spin : bool;
}

(* What every transition reads of the network structure and the problem
   hierarchy, by index only: built once the problems are registered and
   shared by every DPM instantiated from this one; a problem
   registration (decomposition) makes a DPM build its own. *)
type shape = {
  l_regs : int; (* problem registrations it covers *)
  l_args : int array array; (* cid -> argument prop ids *)
  l_order : int array; (* cids in the NM's status order, see [hashtbl_order] *)
  l_objects : int array array; (* prop id -> indices of the objects owning it *)
  l_routing : Notify.routing;
  l_index : int array; (* problem id -> registration index, or -1 *)
  l_outputs : int array array; (* numeric output prop ids per problem *)
  l_cross : bool array; (* cid -> [is_cross_subsystem] *)
  l_owned : (string, owned) Hashtbl.t; (* designer -> what it owns *)
}

and owned = {
  o_idx : int array; (* registration indices of its problems, in order *)
  o_cids : int array; (* their constraint ids, ascending, once each *)
}

(* The shape with this DPM's own records at its indices. *)
type layout = {
  shape : shape;
  l_probs : Problem.t array; (* registration order *)
  l_objs : Design_object.t array; (* [objects] order *)
  l_owned_probs : (string, Problem.t array) Hashtbl.t; (* by designer *)
}

type t = {
  d_mode : mode;
  d_max_revisions : int;
  net : Network.t;
  probs : (int, Problem.t) Hashtbl.t;
  mutable prob_order : int list; (* reversed *)
  objs : (string, Design_object.t) Hashtbl.t;
  mutable obj_order : string list; (* reversed *)
  top : int;
  mutable next_pid : int;
  mutable ops : int;
  mutable evals : int;
  mutable spins : int;
  mutable verified_at : int array; (* cid -> op index of last verification *)
  mutable modified_at : int array; (* prop id -> op index of last assignment *)
  mutable d_tracer : Tracer.t;
  mutable d_revision_work : int; (* HC4 revisions done by DPM propagations *)
  mutable d_regs : int; (* problem registrations so far *)
  mutable d_layout : layout option;
  (* per-transition snapshot buffers, indexed by cid / prop id *)
  mutable d_before : Constr.status array;
  mutable d_after : Constr.status array;
  mutable d_feas_before : Domain.t array;
  mutable d_feas_after : Domain.t array;
  (* relaxed-feasibility memo, valid for one network revision *)
  mutable d_relaxed_rev : int;
  d_relaxed : (string, Domain.t) Hashtbl.t;
}

let never = -1 (* [verified_at] of a constraint never verified *)

let register_problem_internal t parent_id p =
  if p.Problem.pr_id < 0 then
    invalid_arg (Printf.sprintf "Dpm: negative problem id %d" p.Problem.pr_id);
  if Hashtbl.mem t.probs p.Problem.pr_id then
    invalid_arg
      (Printf.sprintf "Dpm: duplicate problem id %d" p.Problem.pr_id);
  t.d_regs <- t.d_regs + 1;
  Hashtbl.replace t.probs p.Problem.pr_id p;
  t.prob_order <- p.Problem.pr_id :: t.prob_order;
  if p.Problem.pr_id >= t.next_pid then t.next_pid <- p.Problem.pr_id + 1;
  match parent_id with
  | None -> ()
  | Some pid ->
    let parent = Hashtbl.find t.probs pid in
    Problem.link_child ~parent ~child:p

let create ~mode ?(max_revisions = 10_000) net ~objects ~top =
  let t =
    {
      d_mode = mode;
      d_max_revisions = max_revisions;
      net;
      probs = Hashtbl.create 16;
      prob_order = [];
      objs = Hashtbl.create 16;
      obj_order = [];
      top = top.Problem.pr_id;
      next_pid = 0;
      ops = 0;
      evals = 0;
      spins = 0;
      verified_at = [||];
      modified_at = [||];
      d_tracer = Tracer.null;
      d_revision_work = 0;
      d_regs = 0;
      d_layout = None;
      d_before = [||];
      d_after = [||];
      d_feas_before = [||];
      d_feas_after = [||];
      d_relaxed_rev = -1;
      d_relaxed = Hashtbl.create 32;
    }
  in
  List.iter
    (fun o ->
      Hashtbl.replace t.objs o.Design_object.o_name o;
      t.obj_order <- o.Design_object.o_name :: t.obj_order)
    objects;
  register_problem_internal t None top;
  t

let register_problem t ~parent p = register_problem_internal t parent p
let fresh_problem_id t = t.next_pid

let mode t = t.d_mode
let network t = t.net
let top_problem t = Hashtbl.find t.probs t.top
let problems t = List.rev_map (fun id -> Hashtbl.find t.probs id) t.prob_order
let find_problem t id = Hashtbl.find t.probs id

let objects t = List.rev_map (fun n -> Hashtbl.find t.objs n) t.obj_order
let find_object t name = Hashtbl.find_opt t.objs name

(* {2 Subsystems} *)

let rec top_ancestor t pid =
  let p = Hashtbl.find t.probs pid in
  match p.Problem.pr_parent with
  | None -> None (* the top problem itself: system level *)
  | Some parent when parent = t.top -> Some pid
  | Some parent -> top_ancestor t parent

let subsystem_of_prop t prop =
  (* A property belongs to the subsystem of the deepest problem that lists
     it among its outputs; system-level requirement properties are outputs
     of the top problem and map to None. *)
  let owner =
    List.find_opt
      (fun p -> List.mem prop p.Problem.pr_outputs && Problem.is_leaf p)
      (problems t)
  in
  let owner =
    match owner with
    | Some p -> Some p
    | None ->
      List.find_opt (fun p -> List.mem prop p.Problem.pr_outputs) (problems t)
  in
  match owner with
  | None -> None
  | Some p -> top_ancestor t p.Problem.pr_id

let cross_of t c =
  let subs = List.filter_map (fun arg -> subsystem_of_prop t arg) (Constr.args c) in
  match List.sort_uniq compare subs with
  | [] | [ _ ] -> false
  | _ :: _ :: _ -> true

(* {2 The dense layout} *)

(* The order [Hashtbl.iter] visits the keys 0 .. n-1 of a
   [Hashtbl.create 64] filled in that order. Transition results were first
   collected by iterating such a table, and traces, daemon replies and
   replay fingerprints record that order; it depends on [n] alone. *)
let hashtbl_order n =
  let h = Hashtbl.create 64 in
  for cid = 0 to n - 1 do
    Hashtbl.replace h cid ()
  done;
  let order = Array.make n 0 and k = ref 0 in
  Hashtbl.iter
    (fun cid () ->
      order.(!k) <- cid;
      incr k)
    h;
  order

(* owners in first-seen problem order, each subscribed to the properties
   of the problems it owns *)
let compile_routing net probs =
  let owners = ref [] (* reversed: owner, its prop ids *) in
  List.iter
    (fun p ->
      let ids =
        match List.assoc_opt p.Problem.pr_owner !owners with
        | Some ids -> ids
        | None ->
          let ids = ref [] in
          owners := (p.Problem.pr_owner, ids) :: !owners;
          ids
      in
      List.iter
        (fun name ->
          if Network.mem_prop net name then ids := Network.prop_id net name :: !ids)
        (p.Problem.pr_inputs @ p.Problem.pr_outputs))
    probs;
  Notify.compile ~prop_count:(Network.prop_count net)
    (List.rev_map (fun (o, ids) -> (o, !ids)) !owners)

(* the indices of the design objects listing each property, for version
   bumps (an object listed twice is bumped once) *)
let objects_by_prop net objs =
  let by_prop = Array.make (Network.prop_count net) [] in
  Array.iteri
    (fun i o ->
      List.iter
        (fun name ->
          if Network.mem_prop net name then begin
            let pid = Network.prop_id net name in
            if not (List.exists (fun j -> objs.(j) == o) by_prop.(pid)) then
              by_prop.(pid) <- i :: by_prop.(pid)
          end)
        o.Design_object.o_properties)
    objs;
  Array.map Array.of_list by_prop

let build_shape t probs objs =
  let net = t.net in
  let index =
    Array.make (1 + Array.fold_left (fun m p -> max m p.Problem.pr_id) 0 probs) (-1)
  in
  Array.iteri (fun i p -> index.(p.Problem.pr_id) <- i) probs;
  let outputs p =
    Array.of_list
      (List.filter_map
         (fun o ->
           let prop = Network.find_prop net o in
           if Domain.is_numeric prop.Network.p_initial then Some prop.Network.p_id
           else None)
         p.Problem.pr_outputs)
  in
  let by_owner = Hashtbl.create 8 in
  Array.iteri
    (fun i p ->
      let mine = Option.value ~default:[] (Hashtbl.find_opt by_owner p.Problem.pr_owner) in
      Hashtbl.replace by_owner p.Problem.pr_owner (i :: mine))
    probs;
  let owned = Hashtbl.create 8 in
  Hashtbl.iter
    (fun owner mine ->
      let mine = Array.of_list (List.rev mine) in
      Hashtbl.replace owned owner
        {
          o_idx = mine;
          o_cids =
            Array.of_list
              (List.sort_uniq compare
                 (List.concat_map
                    (fun i -> probs.(i).Problem.pr_constraints)
                    (Array.to_list mine)));
        })
    by_owner;
  {
    l_regs = t.d_regs;
    l_args = Network.arg_ids net;
    l_order = hashtbl_order (Network.constraint_count net);
    l_objects = objects_by_prop net objs;
    l_routing = compile_routing net (Array.to_list probs);
    l_index = index;
    l_outputs = Array.map outputs probs;
    l_cross = Array.map (cross_of t) (Network.constraint_array net);
    l_owned = owned;
  }

(* [shape] over this DPM's records: [probs] and [objs] in the order the
   shape was built from *)
let attach shape probs objs =
  let owned_probs = Hashtbl.create 8 in
  Hashtbl.iter
    (fun owner o ->
      Hashtbl.replace owned_probs owner (Array.map (fun i -> probs.(i)) o.o_idx))
    shape.l_owned;
  { shape; l_probs = probs; l_objs = objs; l_owned_probs = owned_probs }

let grown arr n fill =
  let len = Array.length arr in
  if len = n then arr
  else begin
    let a = Array.make n fill in
    Array.blit arr 0 a 0 (min len n);
    a
  end

(* the per-index arrays, for the network's size *)
let size t =
  let net = t.net in
  let nc = Network.constraint_count net and np = Network.prop_count net in
  t.verified_at <- grown t.verified_at nc never;
  t.modified_at <- grown t.modified_at np 0;
  if Array.length t.d_before <> nc then begin
    t.d_before <- Array.make nc Constr.Consistent;
    t.d_after <- Array.make nc Constr.Consistent
  end;
  if Array.length t.d_feas_before <> np then begin
    t.d_feas_before <- Array.make np Domain.Empty;
    t.d_feas_after <- Array.make np Domain.Empty
  end

let build_layout t =
  size t;
  let probs = Array.of_list (problems t) and objs = Array.of_list (objects t) in
  attach (build_shape t probs objs) probs objs

(* Valid until a problem is registered (scenario construction and
   decomposition) or {!recompile}. *)
let layout t =
  match t.d_layout with
  | Some l when l.shape.l_regs = t.d_regs -> l
  | _ ->
    let l = build_layout t in
    t.d_layout <- Some l;
    l

let recompile t = t.d_layout <- None

(* a template applies no operations: its snapshot buffers go *)
let freeze t =
  ignore (layout t : layout);
  Network.freeze t.net;
  t.d_before <- [||];
  t.d_after <- [||];
  t.d_feas_before <- [||];
  t.d_feas_after <- [||]

type propagated = { pr_net : Network.snapshot; pr_revision_work : int }

let propagated t =
  { pr_net = Network.snapshot t.net; pr_revision_work = t.d_revision_work }

(* [t]'s state over [net], with copies of everything a DPM writes *)
let copy t ~net ~revision_work =
  let probs = Hashtbl.create 16 in
  Hashtbl.iter (fun id p -> Hashtbl.replace probs id (Problem.copy p)) t.probs;
  let objs = Hashtbl.create 16 in
  Hashtbl.iter (fun name o -> Hashtbl.replace objs name (Design_object.copy o)) t.objs;
  {
    t with
    net;
    probs;
    objs;
    verified_at = Array.copy t.verified_at;
    modified_at = Array.copy t.modified_at;
    d_tracer = Tracer.null;
    d_revision_work = revision_work;
    d_layout = None;
    d_before = [||];
    d_after = [||];
    d_feas_before = [||];
    d_feas_after = [||];
    d_relaxed_rev = -1;
    d_relaxed = Hashtbl.create 32;
  }

let instantiate ?from t =
  let l =
    match t.d_layout with
    | Some l when Network.frozen t.net && l.shape.l_regs = t.d_regs -> l
    | Some _ | None -> invalid_arg "Dpm.instantiate: the DPM is not frozen"
  in
  let d =
    copy t
      ~net:(Network.instantiate ?at:(Option.map (fun p -> p.pr_net) from) t.net)
      ~revision_work:
        (match from with Some p -> p.pr_revision_work | None -> t.d_revision_work)
  in
  size d;
  d.d_layout <-
    Some (attach l.shape (Array.of_list (problems d)) (Array.of_list (objects d)));
  d

let designers t = Notify.designers (layout t).shape.l_routing

let nothing_owned = { o_idx = [||]; o_cids = [||] }

let owned t designer =
  Option.value ~default:nothing_owned (Hashtbl.find_opt (layout t).shape.l_owned designer)

let owned_problems t designer =
  Option.value ~default:[||] (Hashtbl.find_opt (layout t).l_owned_probs designer)

let problems_owned_by t designer = Array.to_list (owned_problems t designer)

let max_revisions t = t.d_max_revisions
let op_count t = t.ops
let eval_count t = t.evals
let spin_count t = t.spins
let revision_work t = t.d_revision_work

let run_propagation ?max_revisions t =
  let max_revisions =
    match max_revisions with Some n -> n | None -> t.d_max_revisions
  in
  let outcome =
    Propagate.run_incremental_and_apply ~max_revisions ~tracer:t.d_tracer t.net
  in
  t.d_revision_work <- t.d_revision_work + outcome.Propagate.revisions;
  outcome

let set_tracer t tracer = t.d_tracer <- tracer
let tracer t = t.d_tracer
let charge_evaluations t n = if n > 0 then t.evals <- t.evals + n

let trace_status = function
  | Constr.Satisfied -> Event.Satisfied
  | Constr.Violated -> Event.Violated
  | Constr.Consistent -> Event.Consistent

(* {2 Freshness (conventional-mode verification staleness)} *)

let is_fresh t l cid =
  let v = t.verified_at.(cid) in
  v <> never
  &&
  let args = l.shape.l_args.(cid) in
  let rec all i = i >= Array.length args || (v >= t.modified_at.(args.(i)) && all (i + 1)) in
  all 0

let known_at t l cid =
  match t.d_mode with
  | Adpm -> Network.status t.net cid
  | Conventional ->
    if is_fresh t l cid then Network.status t.net cid else Constr.Consistent

(* an id outside the layout gets [Network.find_constraint]'s error *)
let check_known l net cid =
  if cid < 0 || cid >= Array.length l.shape.l_args then
    ignore (Network.find_constraint net cid : Constr.t)

let known_status t cid =
  let l = layout t in
  check_known l t.net cid;
  known_at t l cid

(* [known_status t cid = Violated], checking the recorded status before
   the conventional freshness test *)
let known_violated t cid =
  Network.status t.net cid = Constr.Violated
  &&
  match t.d_mode with
  | Adpm -> true
  | Conventional -> is_fresh t (layout t) cid

let known_violations t =
  let l = layout t in
  let acc = ref [] in
  for cid = Array.length l.shape.l_args - 1 downto 0 do
    if known_at t l cid = Constr.Violated then acc := cid :: !acc
  done;
  !acc

let known_statuses t =
  let l = layout t in
  List.init (Array.length l.shape.l_args) (fun cid -> (cid, known_at t l cid))

let snapshot_known t l buf =
  for cid = 0 to Array.length buf - 1 do
    buf.(cid) <- known_at t l cid
  done

(* domains are immutable: a pointer copy per property *)
let snapshot_feasible t buf =
  for pid = 0 to Array.length buf - 1 do
    buf.(pid) <- Network.feasible_id t.net pid
  done

let relaxed_feasible_group t ~target ~unpin =
  match t.d_mode with
  | Conventional ->
    invalid_arg "Dpm.relaxed_feasible: unavailable in conventional mode"
  | Adpm -> (
    (* memoised per network revision: designer decision loops re-query the
       same relaxations while weighing candidates, and nothing mutates the
       network between those queries. A cache hit repeats no propagation,
       so it charges no evaluations. *)
    let rev = Network.revision t.net in
    if rev <> t.d_relaxed_rev then begin
      Hashtbl.reset t.d_relaxed;
      t.d_relaxed_rev <- rev
    end;
    let key = String.concat "\x00" (target :: unpin) in
    match Hashtbl.find_opt t.d_relaxed key with
    | Some d -> d
    | None ->
      let d, evals =
        Propagate.relaxed_feasible_group ~max_revisions:t.d_max_revisions t.net
          ~target ~unpin
      in
      t.evals <- t.evals + evals;
      Hashtbl.replace t.d_relaxed key d;
      d)

let relaxed_feasible t prop = relaxed_feasible_group t ~target:prop ~unpin:[]

(* {2 Spins} *)

(* Static between problem registrations, and asked for every stale bound
   constraint on every conventional verification decision: computed with
   the layout. *)
let is_cross_subsystem t c =
  let l = (layout t).shape in
  let cid = c.Constr.id in
  if cid >= 0 && cid < Array.length l.l_cross then l.l_cross.(cid) else cross_of t c

(* {2 Problem status update} *)

let problem_index l pid =
  if pid >= 0 && pid < Array.length l.shape.l_index && l.shape.l_index.(pid) >= 0 then
    l.shape.l_index.(pid)
  else invalid_arg (Printf.sprintf "Dpm: unknown problem id %d" pid)

let is_bound_id t pid = Network.assigned_id t.net pid <> None

let outputs_bound t l i =
  let outs = l.shape.l_outputs.(i) in
  let rec all k = k >= Array.length outs || (is_bound_id t outs.(k) && all (k + 1)) in
  all 0

(* [known] is the after-snapshot of the transition: a known status never
   depends on a problem status, so it is final before this runs *)
let rec update_problem_status t l known i =
  let p = l.l_probs.(i) in
  let solved pid = l.l_probs.(problem_index l pid).Problem.pr_status = Problem.Solved in
  let deps_solved = List.for_all solved p.Problem.pr_depends_on in
  (* children first: parents depend on their statuses *)
  List.iter
    (fun pid -> update_problem_status t l known (problem_index l pid))
    p.Problem.pr_children;
  let children_solved = List.for_all solved p.Problem.pr_children in
  let own_constraints_ok =
    List.for_all
      (fun cid ->
        check_known l t.net cid;
        known.(cid) = Constr.Satisfied)
      p.Problem.pr_constraints
  in
  let status =
    if not deps_solved then Problem.Waiting
    else if children_solved && outputs_bound t l i && own_constraints_ok then
      Problem.Solved
    else Problem.Open
  in
  Problem.set_status p status

let update_statuses t l known = update_problem_status t l known (problem_index l t.top)

let solved t = (top_problem t).Problem.pr_status = Problem.Solved

let ground_truth_solved t = Network.solved t.net

(* {2 Verification eligibility} *)

let args_bound t l cid =
  let args = l.shape.l_args.(cid) in
  let rec all i = i >= Array.length args || (is_bound_id t args.(i) && all (i + 1)) in
  all 0

(* leaf problems with one of the constraint's arguments among their
   outputs (arguments are numeric, so the numeric outputs suffice) *)
let leaf_problems_of_constraint l cid =
  let args = l.shape.l_args.(cid) in
  List.filteri
    (fun i p ->
      Problem.is_leaf p
      && Array.exists (fun arg -> Array.mem arg l.shape.l_outputs.(i)) args)
    (Array.to_list l.l_probs)

let cross_rule_ok t l cid =
  if not (is_cross_subsystem t (Network.constraint_array t.net).(cid)) then true
  else
    List.for_all
      (fun p -> p.Problem.pr_status = Problem.Solved)
      (leaf_problems_of_constraint l cid)

let eligible_now t l cid =
  args_bound t l cid && (not (is_fresh t l cid)) && cross_rule_ok t l cid

let eligible_verifications t ~designer =
  match t.d_mode with
  | Adpm -> []
  | Conventional ->
    let l = layout t in
    let cids = (owned t designer).o_cids in
    let acc = ref [] in
    Array.iter
      (fun cid ->
        check_known l t.net cid;
        if eligible_now t l cid then acc := cid :: !acc)
      cids;
    List.rev !acc

(* {2 Validation}

   Everything an operation names is checked before the transition
   mutates anything, so a malformed operation leaves no trace. *)

type checked =
  | Assign of (int * Value.t) list (* prop id, value *)
  | Verify of int list
  | Split of Operator.subproblem_spec list

let check_cid t what cid =
  if cid < 0 || cid >= Network.constraint_count t.net then
    invalid_arg (Printf.sprintf "Dpm.apply: unknown constraint id %d in %s" cid what)

let check_op t op =
  let p =
    match Hashtbl.find_opt t.probs op.Operator.op_problem with
    | Some p -> p
    | None ->
      invalid_arg
        (Printf.sprintf "Dpm.apply: unknown problem %d" op.Operator.op_problem)
  in
  List.iter (check_cid t "op_motivated_by") op.Operator.op_motivated_by;
  match op.Operator.op_kind with
  | Operator.Synthesis assignments ->
    Assign
      (List.map
         (fun (prop, value) ->
           if not (List.mem prop p.Problem.pr_outputs) then
             invalid_arg
               (Printf.sprintf "Dpm.apply: %s is not an output of problem %s"
                  prop p.Problem.pr_name);
           (Network.check_assign t.net prop value, value))
         assignments)
  | Operator.Verification cids ->
    List.iter (check_cid t "verification") cids;
    Verify cids
  | Operator.Decompose specs ->
    List.iter
      (fun spec ->
        List.iter (check_cid t "decomposition") spec.Operator.sp_constraints;
        List.iter
          (fun o ->
            if not (Network.mem_prop t.net o) then
              invalid_arg
                (Printf.sprintf "Dpm.apply: unknown output %s of subproblem %s" o
                   spec.Operator.sp_name))
          spec.Operator.sp_outputs;
        List.iter
          (fun dep ->
            if
              not
                (List.exists
                   (fun s -> String.equal s.Operator.sp_name dep)
                   specs)
            then
              invalid_arg
                (Printf.sprintf "Dpm.apply: unknown sibling dependency %s" dep))
          spec.Operator.sp_depends_on_names)
      specs;
    Split specs

let validate t op = ignore (check_op t op : checked)

(* {2 The transition} *)

let bump_objects l pid =
  Array.iter (fun i -> Design_object.bump_patch l.l_objs.(i)) l.shape.l_objects.(pid)

let apply_synthesis t l idx assignments =
  List.iter
    (fun (pid, value) ->
      Network.assign_id t.net pid value;
      t.modified_at.(pid) <- idx;
      bump_objects l pid)
    assignments;
  match t.d_mode with
  | Conventional -> (0, [])
  | Adpm ->
    let outcome = run_propagation t in
    (outcome.Propagate.evaluations, [])

let apply_verification t l idx cids =
  (* Eligibility is mode-specific, and [skipped] must be its exact
     complement: in ADPM mode propagation keeps everything fresh, so a
     verification is an explicit point check of the requested, bound
     constraints; in conventional mode the staleness/cross-subsystem rules
     apply. Partitioning per mode keeps a constraint from being reported
     skipped while it was actually checked. *)
  let eligible, skipped =
    match t.d_mode with
    | Conventional -> List.partition (eligible_now t l) cids
    | Adpm -> List.partition (args_bound t l) cids
  in
  let constraints = Network.constraint_array t.net in
  List.iter
    (fun cid ->
      let status =
        if Network.check_constraint_point t.net constraints.(cid) then
          Constr.Satisfied
        else Constr.Violated
      in
      Network.set_status t.net cid status;
      t.verified_at.(cid) <- idx)
    eligible;
  (List.length eligible, skipped)

let apply_decompose t op specs =
  let parent = find_problem t op.Operator.op_problem in
  let created =
    List.map
      (fun spec ->
        let p =
          Problem.make ~id:(fresh_problem_id t) ~name:spec.Operator.sp_name
            ~owner:spec.Operator.sp_owner ~inputs:spec.Operator.sp_inputs
            ~outputs:spec.Operator.sp_outputs
            ~constraints:spec.Operator.sp_constraints
            ?object_name:spec.Operator.sp_object ()
        in
        register_problem t ~parent:(Some parent.Problem.pr_id) p;
        (spec, p))
      specs
  in
  (* resolve sibling dependency names (checked by [check_op]) *)
  List.iter
    (fun (spec, p) ->
      List.iter
        (fun dep_name ->
          let _, dep =
            List.find
              (fun (s, _) -> String.equal s.Operator.sp_name dep_name)
              created
          in
          Problem.add_dependency p dep.Problem.pr_id)
        spec.Operator.sp_depends_on_names)
    created;
  match t.d_mode with
  | Conventional -> (0, [])
  | Adpm ->
    (* decomposition may have registered new problems/constraints: the
       network invalidates its persisted propagation state on structural
       changes, so the incremental engine transparently restarts in full *)
    let outcome = run_propagation t in
    (outcome.Propagate.evaluations, [])

let trace_status_changes t changes =
  if Tracer.active t.d_tracer then
    List.iter
      (fun (cid, before, after) ->
        Tracer.emit t.d_tracer
          (Event.Constraint_status_changed
             {
               cid;
               old_status = trace_status before;
               new_status = trace_status after;
             }))
      changes

let apply t op =
  let checked = check_op t op in
  let l = layout t in
  t.ops <- t.ops + 1;
  let idx = t.ops in
  Tracer.set_clock t.d_tracer idx;
  (* Spins are "expensive design iterations performed upon system
     integration" (Section 3.1.2): an operation counts as one when it
     reacts to a cross-subsystem violation at a point where the design is
     fully bound — i.e. the conflict is an integration-level conflict, not
     an early warning that guidance surfaced while subsystems were still
     open. *)
  let integration_level = Network.all_numeric_bound t.net in
  snapshot_known t l t.d_before;
  snapshot_feasible t t.d_feas_before;
  let evaluations, skipped =
    match checked with
    | Assign assignments -> apply_synthesis t l idx assignments
    | Verify cids -> apply_verification t l idx cids
    | Split specs -> apply_decompose t op specs
  in
  t.evals <- t.evals + evaluations;
  (* a decomposition registered problems: same buffers, new tables *)
  let l = layout t in
  let after = t.d_after in
  snapshot_known t l after;
  update_statuses t l after;
  snapshot_feasible t t.d_feas_after;
  let delta =
    Notify.diff l.shape.l_routing t.net ~order:l.shape.l_order ~args:l.shape.l_args
      ~before:t.d_before ~after ~before_feasible:t.d_feas_before
      ~after_feasible:t.d_feas_after
  in
  let changes = Notify.status_changes ~before:t.d_before ~after in
  trace_status_changes t changes;
  let spin =
    integration_level
    && List.exists
         (fun cid -> is_cross_subsystem t (Network.constraint_array t.net).(cid))
         op.Operator.op_motivated_by
  in
  if spin then t.spins <- t.spins + 1;
  let notifications = delta.Notify.d_notifications in
  Notify.trace_pushed t.d_tracer ~op_index:idx notifications;
  let result =
    {
      r_index = idx;
      r_evaluations = evaluations;
      r_newly_violated = delta.Notify.d_newly_violated;
      r_resolved = delta.Notify.d_resolved;
      r_status_changes = changes;
      r_skipped = skipped;
      r_notifications = notifications;
      r_spin = spin;
    }
  in
  if Tracer.active t.d_tracer then
    Tracer.emit t.d_tracer
      (Event.Op_executed
         {
           index = idx;
           designer = op.Operator.op_designer;
           kind = Operator.kind_label op;
           evaluations;
           newly_violated = result.r_newly_violated;
           resolved = result.r_resolved;
           skipped;
           spin;
         });
  result

(* {2 Requirement shifts} *)

let shift_requirement t ~prop ~value =
  if not (Network.mem_prop t.net prop) then
    invalid_arg
      (Printf.sprintf "Dpm.shift_requirement: unknown property %S" prop);
  let pid = Network.check_assign t.net prop (Value.Num value) in
  let l = layout t in
  snapshot_known t l t.d_before;
  Network.assign_id t.net pid (Value.Num value);
  (* the shifted requirement is newer than every executed operation, so a
     conventional team's verifications of its constraints go stale and the
     new demand is only discovered on re-verification; an ADPM team pays
     for (and benefits from) an immediate propagation *)
  t.modified_at.(pid) <- t.ops + 1;
  bump_objects l pid;
  (match t.d_mode with
  | Conventional -> ()
  | Adpm ->
    let outcome = run_propagation t in
    t.evals <- t.evals + outcome.Propagate.evaluations);
  snapshot_known t l t.d_after;
  update_statuses t l t.d_after;
  let changes = Notify.status_changes ~before:t.d_before ~after:t.d_after in
  trace_status_changes t changes;
  changes
