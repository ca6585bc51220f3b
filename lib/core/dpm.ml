open Adpm_interval
open Adpm_csp
open Adpm_trace

type mode = Conventional | Adpm

let mode_to_string = function Conventional -> "conventional" | Adpm -> "ADPM"

let mode_of_string = function
  | "conventional" -> Some Conventional
  | "ADPM" | "adpm" -> Some Adpm
  | _ -> None

type engine = Full | Incremental

let engine_to_string = function Full -> "full" | Incremental -> "incremental"

let engine_of_string = function
  | "full" -> Some Full
  | "incremental" -> Some Incremental
  | _ -> None

type history_entry = {
  h_index : int;
  h_op : Operator.t;
  h_evaluations : int;
  h_new_violations : int;
  h_known_violations : int;
  h_spin : bool;
}

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

type t = {
  d_mode : mode;
  mutable d_engine : engine;
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
  verified_at : (int, int) Hashtbl.t; (* cid -> op index of last verification *)
  modified_at : (string, int) Hashtbl.t; (* prop -> op index of last assignment *)
  mutable hist : history_entry list; (* reversed *)
  mutable d_tracer : Tracer.t;
  mutable d_revision_work : int; (* HC4 revisions done by DPM propagations *)
  (* constraint id -> spans subsystems; valid until a problem is added *)
  d_cross : (int, bool) Hashtbl.t;
  (* relaxed-feasibility memo, valid for one network revision *)
  mutable d_relaxed_rev : int;
  d_relaxed : (string, Domain.t) Hashtbl.t;
}

let register_problem_internal t parent_id p =
  if Hashtbl.mem t.probs p.Problem.pr_id then
    invalid_arg
      (Printf.sprintf "Dpm: duplicate problem id %d" p.Problem.pr_id);
  Hashtbl.reset t.d_cross;
  Hashtbl.replace t.probs p.Problem.pr_id p;
  t.prob_order <- p.Problem.pr_id :: t.prob_order;
  if p.Problem.pr_id >= t.next_pid then t.next_pid <- p.Problem.pr_id + 1;
  match parent_id with
  | None -> ()
  | Some pid ->
    let parent = Hashtbl.find t.probs pid in
    Problem.link_child ~parent ~child:p

let create ~mode ?(engine = Incremental) ?(max_revisions = 10_000) net ~objects
    ~top =
  let t =
    {
      d_mode = mode;
      d_engine = engine;
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
      verified_at = Hashtbl.create 64;
      modified_at = Hashtbl.create 64;
      hist = [];
      d_tracer = Tracer.null;
      d_revision_work = 0;
      d_cross = Hashtbl.create 64;
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

let problems_owned_by t designer =
  List.filter (fun p -> String.equal p.Problem.pr_owner designer) (problems t)

let objects t = List.rev_map (fun n -> Hashtbl.find t.objs n) t.obj_order
let find_object t name = Hashtbl.find_opt t.objs name

(* First-seen order; called once per operation via [subscriptions], so a
   seen-table beats the quadratic [List.mem]/append-at-end construction. *)
let designers t =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rev =
    List.fold_left
      (fun acc p ->
        let o = p.Problem.pr_owner in
        if Hashtbl.mem seen o then acc
        else begin
          Hashtbl.replace seen o ();
          o :: acc
        end)
      [] (problems t)
  in
  List.rev rev

let op_count t = t.ops
let eval_count t = t.evals
let spin_count t = t.spins
let revision_work t = t.d_revision_work

let engine t = t.d_engine
let set_engine t engine = t.d_engine <- engine

let run_propagation ?max_revisions t =
  let max_revisions =
    match max_revisions with Some n -> n | None -> t.d_max_revisions
  in
  let outcome =
    match t.d_engine with
    | Full -> Propagate.run_and_apply ~max_revisions ~tracer:t.d_tracer t.net
    | Incremental ->
      Propagate.run_incremental_and_apply ~max_revisions ~tracer:t.d_tracer
        t.net
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

let modified_at t prop =
  try Hashtbl.find t.modified_at prop with Not_found -> 0

let is_fresh t c =
  match Hashtbl.find_opt t.verified_at c.Constr.id with
  | None -> false
  | Some v ->
    List.for_all (fun arg -> v >= modified_at t arg) (Constr.args c)

let known_status t cid =
  let c = Network.find_constraint t.net cid in
  match t.d_mode with
  | Adpm -> Network.status t.net cid
  | Conventional ->
    if is_fresh t c then Network.status t.net cid else Constr.Consistent

(* [known_status t cid = Violated], checking the recorded status before
   the conventional freshness test *)
let known_violated t cid =
  Network.status t.net cid = Constr.Violated
  &&
  match t.d_mode with
  | Adpm -> true
  | Conventional -> is_fresh t (Network.find_constraint t.net cid)

let known_violations t =
  List.filter_map
    (fun c -> if known_violated t c.Constr.id then Some c.Constr.id else None)
    (Network.constraints t.net)

let known_statuses t =
  List.map
    (fun c -> (c.Constr.id, known_status t c.Constr.id))
    (Network.constraints t.net)

let heuristic_info t prop =
  match t.d_mode with
  | Conventional -> None
  | Adpm ->
    if Network.mem_prop t.net prop then
      Some (Heuristic_data.mine_prop t.net prop)
    else None

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

(* {2 Subsystems and spins} *)

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

(* Static between problem registrations, and asked for every stale bound
   constraint on every conventional verification decision: memoised. *)
let is_cross_subsystem t c =
  match Hashtbl.find_opt t.d_cross c.Constr.id with
  | Some cross -> cross
  | None ->
    let subs =
      List.filter_map (fun arg -> subsystem_of_prop t arg) (Constr.args c)
    in
    let cross =
      match List.sort_uniq compare subs with
      | [] | [ _ ] -> false
      | _ :: _ :: _ -> true
    in
    Hashtbl.replace t.d_cross c.Constr.id cross;
    cross

(* {2 Problem status update} *)

let constraint_known_satisfied t cid = known_status t cid = Constr.Satisfied

let outputs_bound t p =
  List.for_all
    (fun o ->
      (not (Domain.is_numeric (Network.initial_domain t.net o)))
      || Network.is_bound t.net o)
    p.Problem.pr_outputs

let rec update_problem_status t p =
  let deps_solved =
    List.for_all
      (fun dep ->
        (Hashtbl.find t.probs dep).Problem.pr_status = Problem.Solved)
      p.Problem.pr_depends_on
  in
  (* children first: parents depend on their statuses *)
  List.iter
    (fun cid -> update_problem_status t (Hashtbl.find t.probs cid))
    p.Problem.pr_children;
  let children_solved =
    List.for_all
      (fun cid -> (Hashtbl.find t.probs cid).Problem.pr_status = Problem.Solved)
      p.Problem.pr_children
  in
  let own_constraints_ok =
    List.for_all (fun cid -> constraint_known_satisfied t cid) p.Problem.pr_constraints
  in
  let status =
    if not deps_solved then Problem.Waiting
    else if children_solved && outputs_bound t p && own_constraints_ok then
      Problem.Solved
    else Problem.Open
  in
  Problem.set_status p status

let update_statuses t = update_problem_status t (top_problem t)

let integration_ready t =
  List.for_all
    (fun p ->
      (not (Problem.is_leaf p)) || p.Problem.pr_status = Problem.Solved)
    (problems t)

let solved t = (top_problem t).Problem.pr_status = Problem.Solved

let ground_truth_solved t = Network.solved t.net

(* {2 Verification eligibility} *)

let args_bound t c =
  List.for_all (fun arg -> Network.is_bound t.net arg) (Constr.args c)

let leaf_problems_of_constraint t c =
  let arg_list = Constr.args c in
  List.filter
    (fun p ->
      Problem.is_leaf p
      && List.exists (fun arg -> List.mem arg p.Problem.pr_outputs) arg_list)
    (problems t)

let cross_rule_ok t c =
  if not (is_cross_subsystem t c) then true
  else
    List.for_all
      (fun p -> p.Problem.pr_status = Problem.Solved)
      (leaf_problems_of_constraint t c)

let eligible_now t c =
  args_bound t c && (not (is_fresh t c)) && cross_rule_ok t c

let eligible_verifications t ~designer =
  match t.d_mode with
  | Adpm -> []
  | Conventional ->
    let owned = problems_owned_by t designer in
    let cids =
      List.sort_uniq compare
        (List.concat_map (fun p -> p.Problem.pr_constraints) owned)
    in
    List.filter
      (fun cid -> eligible_now t (Network.find_constraint t.net cid))
      cids

(* {2 Subscriptions for the NM} *)

let subscriptions t =
  List.map
    (fun designer ->
      let props =
        List.sort_uniq compare
          (List.concat_map Problem.properties (problems_owned_by t designer))
      in
      (designer, props))
    (designers t)

(* {2 The transition} *)

let snapshot_known t =
  let table = Hashtbl.create 64 in
  List.iter
    (fun c -> Hashtbl.replace table c.Constr.id (known_status t c.Constr.id))
    (Network.constraints t.net);
  table

let snapshot_feasible t =
  let table = Hashtbl.create 64 in
  List.iter
    (fun name ->
      if Domain.is_numeric (Network.initial_domain t.net name) then
        Hashtbl.replace table name (Network.feasible t.net name))
    (Network.prop_names t.net);
  table

let bump_object_for_prop t prop =
  Hashtbl.iter
    (fun _ o -> if Design_object.owns o prop then Design_object.bump_patch o)
    t.objs

let apply_synthesis t idx op assignments =
  let p = find_problem t op.Operator.op_problem in
  List.iter
    (fun (prop, value) ->
      if not (List.mem prop p.Problem.pr_outputs) then
        invalid_arg
          (Printf.sprintf "Dpm.apply: %s is not an output of problem %s" prop
             p.Problem.pr_name);
      Network.assign t.net prop value;
      Hashtbl.replace t.modified_at prop idx;
      bump_object_for_prop t prop)
    assignments;
  match t.d_mode with
  | Conventional -> (0, [])
  | Adpm ->
    let outcome = run_propagation t in
    (outcome.Propagate.evaluations, [])

let apply_verification t idx op cids =
  (* Eligibility is mode-specific, and [skipped] must be its exact
     complement: in ADPM mode propagation keeps everything fresh, so a
     verification is an explicit point check of the requested, bound
     constraints; in conventional mode the staleness/cross-subsystem rules
     apply. Partitioning per mode keeps a constraint from being reported
     skipped while it was actually checked. *)
  let eligible, skipped =
    match t.d_mode with
    | Conventional ->
      List.partition
        (fun cid -> eligible_now t (Network.find_constraint t.net cid))
        cids
    | Adpm ->
      List.partition
        (fun cid -> args_bound t (Network.find_constraint t.net cid))
        cids
  in
  let evals = ref 0 in
  List.iter
    (fun cid ->
      let c = Network.find_constraint t.net cid in
      incr evals;
      let status =
        if Network.check_constraint_point t.net c then Constr.Satisfied
        else Constr.Violated
      in
      Network.set_status t.net cid status;
      Hashtbl.replace t.verified_at cid idx)
    eligible;
  ignore op;
  (!evals, skipped)

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
  (* resolve sibling dependency names *)
  List.iter
    (fun (spec, p) ->
      List.iter
        (fun dep_name ->
          match
            List.find_opt
              (fun (s, _) -> String.equal s.Operator.sp_name dep_name)
              created
          with
          | Some (_, dep) -> Problem.add_dependency p dep.Problem.pr_id
          | None ->
            invalid_arg
              (Printf.sprintf "Dpm.apply: unknown sibling dependency %s" dep_name))
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

let apply t op =
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
  let before_known = snapshot_known t in
  let before_feasible = snapshot_feasible t in
  let evaluations, skipped =
    match op.Operator.op_kind with
    | Operator.Synthesis assignments -> apply_synthesis t idx op assignments
    | Operator.Verification cids -> apply_verification t idx op cids
    | Operator.Decompose specs -> apply_decompose t op specs
  in
  t.evals <- t.evals + evaluations;
  update_statuses t;
  let after_known = snapshot_known t in
  let newly_violated = ref [] and resolved = ref [] in
  let status_changes = ref [] in
  Hashtbl.iter
    (fun cid after ->
      let before =
        try Hashtbl.find before_known cid with Not_found -> Constr.Consistent
      in
      if before <> after then status_changes := (cid, before, after) :: !status_changes;
      if after = Constr.Violated && before <> Constr.Violated then
        newly_violated := cid :: !newly_violated
      else if before = Constr.Violated && after = Constr.Satisfied then
        resolved := cid :: !resolved)
    after_known;
  let status_changes = List.sort compare !status_changes in
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
      status_changes;
  let spin =
    integration_level
    && List.exists
         (fun cid -> is_cross_subsystem t (Network.find_constraint t.net cid))
         op.Operator.op_motivated_by
  in
  if spin then t.spins <- t.spins + 1;
  let notifications =
    Notify.diff ~subscriptions:(subscriptions t)
      ~args_of:(fun cid -> Constr.args (Network.find_constraint t.net cid))
      ~old_statuses:(fun cid ->
        try Hashtbl.find before_known cid with Not_found -> Constr.Consistent)
      ~new_statuses:(Hashtbl.fold (fun cid s acc -> (cid, s) :: acc) after_known [])
      ~old_feasible:(fun prop ->
        try Hashtbl.find before_feasible prop
        with Not_found -> Network.initial_domain t.net prop)
      ~new_feasible:
        (List.filter_map
           (fun name ->
             if Domain.is_numeric (Network.initial_domain t.net name) then
               Some (name, Network.feasible t.net name)
             else None)
           (Network.prop_names t.net))
  in
  Notify.trace_pushed t.d_tracer ~op_index:idx notifications;
  let known_now = known_violations t in
  t.hist <-
    {
      h_index = idx;
      h_op = op;
      h_evaluations = evaluations;
      h_new_violations = List.length !newly_violated;
      h_known_violations = List.length known_now;
      h_spin = spin;
    }
    :: t.hist;
  let result =
    {
      r_index = idx;
      r_evaluations = evaluations;
      r_newly_violated = List.rev !newly_violated;
      r_resolved = List.rev !resolved;
      r_status_changes = status_changes;
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
  let before_known = snapshot_known t in
  Network.assign t.net prop (Value.Num value);
  (* the shifted requirement is newer than every executed operation, so a
     conventional team's verifications of its constraints go stale and the
     new demand is only discovered on re-verification; an ADPM team pays
     for (and benefits from) an immediate propagation *)
  Hashtbl.replace t.modified_at prop (t.ops + 1);
  bump_object_for_prop t prop;
  (match t.d_mode with
  | Conventional -> ()
  | Adpm ->
    let outcome = run_propagation t in
    t.evals <- t.evals + outcome.Propagate.evaluations);
  update_statuses t;
  let after_known = snapshot_known t in
  let status_changes = ref [] in
  Hashtbl.iter
    (fun cid after ->
      let before =
        try Hashtbl.find before_known cid with Not_found -> Constr.Consistent
      in
      if before <> after then
        status_changes := (cid, before, after) :: !status_changes)
    after_known;
  let status_changes = List.sort compare !status_changes in
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
      status_changes;
  status_changes

let history t = List.rev t.hist
