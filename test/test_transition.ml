(* The dense DPM transition against the definition it replaced.

   Random operation sequences — designer-model choices, random synthesis
   and verification requests, decompositions and requirement shifts —
   run on the built-in scenarios and on generated ones, in both modes.
   Around every transition the test takes its own snapshots through the
   public API, the way the transition used to: known statuses into a
   [Hashtbl.create 64] filled in constraint order, numeric feasible
   subspaces by name. From those it derives what the result must be —
   newly violated and resolved constraints in that table's iteration
   order, status changes by id, and the notifications of the list-based
   oracle NM ([Notify_oracle]) routed by subscriptions rebuilt from the
   problems' owners. Conventional-mode knowledge is modelled here too:
   verification and assignment stamps are tracked from the operations
   themselves, so the DPM's dense freshness arrays are checked against an
   independent definition of [known_status]. *)

open Adpm_util
open Adpm_interval
open Adpm_csp
open Adpm_core
open Adpm_teamsim

(* {2 Reference model} *)

type model = {
  verified : (int, int) Hashtbl.t; (* cid -> op index of last verification *)
  modified : (string, int) Hashtbl.t; (* prop -> op index of last assignment *)
}

let ref_known dpm m cid =
  let net = Dpm.network dpm in
  match Dpm.mode dpm with
  | Dpm.Adpm -> Network.status net cid
  | Dpm.Conventional -> (
    match Hashtbl.find_opt m.verified cid with
    | None -> Constr.Consistent
    | Some v ->
      let stamp a = Option.value ~default:0 (Hashtbl.find_opt m.modified a) in
      if List.for_all (fun a -> v >= stamp a) (Constr.args (Network.find_constraint net cid))
      then Network.status net cid
      else Constr.Consistent)

let snapshot_known dpm m =
  let table = Hashtbl.create 64 in
  List.iter
    (fun c -> Hashtbl.replace table c.Constr.id (ref_known dpm m c.Constr.id))
    (Network.constraints (Dpm.network dpm));
  table

let numeric_feasible net =
  List.filter_map
    (fun name ->
      if Domain.is_numeric (Network.initial_domain net name) then
        Some (name, Network.feasible net name)
      else None)
    (Network.prop_names net)

let ref_subscriptions dpm =
  let owners =
    List.fold_left
      (fun acc p ->
        if List.mem p.Problem.pr_owner acc then acc else acc @ [ p.Problem.pr_owner ])
      [] (Dpm.problems dpm)
  in
  List.map
    (fun o ->
      ( o,
        List.sort_uniq compare
          (List.concat_map Problem.properties (Dpm.problems_owned_by dpm o)) ))
    owners

let ref_changes before after =
  List.sort compare
    (Hashtbl.fold
       (fun cid a acc ->
         let b = Option.value ~default:Constr.Consistent (Hashtbl.find_opt before cid) in
         if a <> b then (cid, b, a) :: acc else acc)
       after [])

let fail fmt = Printf.ksprintf failwith fmt

let problem_statuses dpm =
  List.map (fun p -> (p.Problem.pr_id, p.Problem.pr_status)) (Dpm.problems dpm)

(* The status pass over the problem tree, from the public API: children
   before parents, and a dependency read as the pass left it (a sibling
   visited earlier has its new status, a later one its old status; a
   problem registered by the operation starts Open). *)
let check_problem_statuses label dpm m old =
  let net = Dpm.network dpm in
  let cur = Hashtbl.create 16 in
  List.iter (fun (pid, s) -> Hashtbl.replace cur pid s) old;
  let solved q = Hashtbl.find_opt cur q = Some Problem.Solved in
  let rec go pid =
    let p = List.find (fun p -> p.Problem.pr_id = pid) (Dpm.problems dpm) in
    let deps = List.for_all solved p.Problem.pr_depends_on in
    List.iter go p.Problem.pr_children;
    let children = List.for_all solved p.Problem.pr_children in
    let outputs =
      List.for_all
        (fun o ->
          (not (Domain.is_numeric (Network.initial_domain net o))) || Network.is_bound net o)
        p.Problem.pr_outputs
    in
    let own =
      List.for_all (fun cid -> ref_known dpm m cid = Constr.Satisfied) p.Problem.pr_constraints
    in
    Hashtbl.replace cur pid
      (if not deps then Problem.Waiting
       else if children && outputs && own then Problem.Solved
       else Problem.Open)
  in
  go (Dpm.top_problem dpm).Problem.pr_id;
  List.iter
    (fun (pid, s) ->
      if Hashtbl.find_opt cur pid <> Some s then fail "%s: status of problem %d" label pid)
    (problem_statuses dpm)

let check_knowledge label dpm m =
  let net = Dpm.network dpm in
  List.iter
    (fun c ->
      let cid = c.Constr.id in
      if Dpm.known_status dpm cid <> ref_known dpm m cid then
        fail "%s: known_status of %d" label cid)
    (Network.constraints net);
  let expected =
    List.filter_map
      (fun c ->
        if ref_known dpm m c.Constr.id = Constr.Violated then Some c.Constr.id else None)
      (Network.constraints net)
  in
  if Dpm.known_violations dpm <> expected then fail "%s: known_violations" label;
  let subs = ref_subscriptions dpm in
  if Dpm.designers dpm <> List.map fst subs then fail "%s: designers" label

(* One [Dpm.apply] checked against the reference; updates the model. *)
let checked_apply dpm m op =
  let net = Dpm.network dpm in
  let subscriptions = ref_subscriptions dpm in
  let before = snapshot_known dpm m in
  let before_feasible = Hashtbl.create 64 in
  List.iter (fun (n, d) -> Hashtbl.replace before_feasible n d) (numeric_feasible net);
  let old_problems = problem_statuses dpm in
  let r = Dpm.apply dpm op in
  let idx = r.Dpm.r_index in
  (match op.Operator.op_kind with
  | Operator.Synthesis assignments ->
    List.iter (fun (p, _) -> Hashtbl.replace m.modified p idx) assignments
  | Operator.Verification cids ->
    List.iter
      (fun cid ->
        if not (List.mem cid r.Dpm.r_skipped) then Hashtbl.replace m.verified cid idx)
      cids
  | Operator.Decompose _ -> ());
  let after = snapshot_known dpm m in
  let newly = ref [] and resolved = ref [] in
  Hashtbl.iter
    (fun cid a ->
      let b = Option.value ~default:Constr.Consistent (Hashtbl.find_opt before cid) in
      if a = Constr.Violated && b <> Constr.Violated then newly := cid :: !newly
      else if b = Constr.Violated && a = Constr.Satisfied then resolved := cid :: !resolved)
    after;
  let label = Printf.sprintf "op %d (%s)" idx (Operator.kind_label op) in
  if r.Dpm.r_newly_violated <> List.rev !newly then fail "%s: r_newly_violated" label;
  if r.Dpm.r_resolved <> List.rev !resolved then fail "%s: r_resolved" label;
  if r.Dpm.r_status_changes <> ref_changes before after then
    fail "%s: r_status_changes" label;
  let expected =
    Notify_oracle.diff ~subscriptions
      ~args_of:(fun cid -> Constr.args (Network.find_constraint net cid))
      ~old_statuses:(fun cid ->
        Option.value ~default:Constr.Consistent (Hashtbl.find_opt before cid))
      ~new_statuses:(Hashtbl.fold (fun cid s acc -> (cid, s) :: acc) after [])
      ~old_feasible:(fun prop ->
        match Hashtbl.find_opt before_feasible prop with
        | Some d -> d
        | None -> Network.initial_domain net prop)
      ~new_feasible:(numeric_feasible net)
  in
  if r.Dpm.r_notifications <> expected then fail "%s: r_notifications" label;
  (* the known violations the op leaves, counted on the reference *)
  let violated = Hashtbl.fold (fun _ s n -> if s = Constr.Violated then n + 1 else n) after 0 in
  if List.length (Dpm.known_violations dpm) <> violated then
    fail "%s: known violation count" label;
  check_problem_statuses label dpm m old_problems;
  check_knowledge label dpm m;
  r

let checked_shift dpm m prop value =
  let before = snapshot_known dpm m in
  let old_problems = problem_statuses dpm in
  let changes = Dpm.shift_requirement dpm ~prop ~value in
  Hashtbl.replace m.modified prop (Dpm.op_count dpm + 1);
  let label = Printf.sprintf "shift of %s" prop in
  check_problem_statuses label dpm m old_problems;
  if changes <> ref_changes before (snapshot_known dpm m) then
    fail "%s: status changes" label;
  check_knowledge label dpm m

(* {2 Random operations} *)

let numeric_hull net name =
  match Network.initial_domain net name with
  | (Domain.Continuous _ | Domain.Finite _) as d -> (
    match Domain.hull d with
    | Some iv when Float.is_finite (Interval.lo iv) && Float.is_finite (Interval.hi iv) ->
      Some iv
    | _ -> None)
  | Domain.Empty | Domain.Symbolic _ -> None

let random_value rng iv = Rng.float_range rng (Interval.lo iv) (Interval.hi iv)

let random_synthesis rng dpm =
  let net = Dpm.network dpm in
  let candidates =
    List.filter_map
      (fun p ->
        match List.filter (fun o -> numeric_hull net o <> None) p.Problem.pr_outputs with
        | [] -> None
        | outs -> Some (p, outs))
      (Dpm.problems dpm)
  in
  match candidates with
  | [] -> None
  | _ ->
    let p, outs = Rng.pick rng candidates in
    let picked = List.filter (fun _ -> Rng.int rng 3 = 0) outs in
    let picked = if picked = [] then [ Rng.pick rng outs ] else picked in
    Some
      (Operator.synthesis ~designer:p.Problem.pr_owner ~problem:p.Problem.pr_id
         (List.map
            (fun o ->
              let iv = Option.get (numeric_hull net o) in
              (o, Value.Num (random_value rng iv)))
            picked))

let random_cids rng n =
  if n = 0 then [] else List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng n)

let random_verification rng dpm =
  let n = Network.constraint_count (Dpm.network dpm) in
  let p = Rng.pick rng (Dpm.problems dpm) in
  let motivated_by =
    match Dpm.known_violations dpm with
    | [] -> []
    | vs -> if Rng.bool rng then [ Rng.pick rng vs ] else []
  in
  Operator.verification ~motivated_by ~designer:p.Problem.pr_owner
    ~problem:p.Problem.pr_id (random_cids rng n)

(* split a leaf problem with two or more outputs into two ordered
   subproblems, the second owned by a newcomer *)
let random_decomposition rng dpm k =
  let leaves =
    List.filter
      (fun p ->
        Problem.is_leaf p && p.Problem.pr_parent <> None
        && List.length p.Problem.pr_outputs >= 2)
      (Dpm.problems dpm)
  in
  match leaves with
  | [] -> None
  | _ ->
    let p = Rng.pick rng leaves in
    let first, second =
      List.partition (fun _ -> Rng.bool rng) p.Problem.pr_outputs
    in
    let constraints = List.filter (fun _ -> Rng.bool rng) p.Problem.pr_constraints in
    let spec name owner outputs after =
      {
        Operator.sp_name = name;
        sp_owner = owner;
        sp_inputs = p.Problem.pr_inputs;
        sp_outputs = outputs;
        sp_constraints = constraints;
        sp_depends_on_names = after;
        sp_object = p.Problem.pr_object;
      }
    in
    let a = Printf.sprintf "%s.a%d" p.Problem.pr_name k
    and b = Printf.sprintf "%s.b%d" p.Problem.pr_name k in
    Some
      (Operator.decompose ~designer:p.Problem.pr_owner ~problem:p.Problem.pr_id
         [
           spec a p.Problem.pr_owner first [];
           spec b (Printf.sprintf "newcomer%d" k) second [ a ];
         ])

let random_shift rng dpm =
  let net = Dpm.network dpm in
  match
    List.filter
      (fun n -> numeric_hull net n <> None && Network.is_bound net n)
      (Network.prop_names net)
  with
  | [] -> None
  | bound ->
    let prop = Rng.pick rng bound in
    Some (prop, random_value rng (Option.get (numeric_hull net prop)))

(* {2 Sequences} *)

let run_sequence scenario mode seed =
  let rng = Rng.create seed in
  let dpm = scenario.Scenario.sc_build ~mode in
  let m = { verified = Hashtbl.create 64; modified = Hashtbl.create 64 } in
  (match mode with
  | Dpm.Adpm -> ignore (Dpm.run_propagation dpm)
  | Dpm.Conventional -> ());
  check_knowledge "start" dpm m;
  let cfg = Config.default ~mode ~seed in
  let influence = Compiled.influence (Scenario.compiled scenario ~mode) in
  let team =
    List.map
      (fun name -> Designer.create cfg ~rng:(Rng.split rng) ~influence name)
      (Dpm.designers dpm)
  in
  let splits = ref 0 in
  let steps = 15 + Rng.int rng 25 in
  for _ = 1 to steps do
    let op =
      match Rng.int rng 20 with
      | 0 | 1 -> (
        match random_shift rng dpm with
        | Some (prop, value) ->
          checked_shift dpm m prop value;
          None
        | None -> None)
      | 2 when !splits < 2 ->
        incr splits;
        random_decomposition rng dpm !splits
      | 3 | 4 | 5 | 6 | 7 -> random_synthesis rng dpm
      | 8 | 9 | 10 -> Some (random_verification rng dpm)
      | _ -> Designer.choose_operation (Rng.pick rng team) dpm
    in
    match op with
    | None -> ()
    | Some op ->
      let r = checked_apply dpm m op in
      List.iter
        (fun d ->
          Designer.observe d dpm
            ~own:(String.equal (Designer.name d) op.Operator.op_designer)
            op r)
        team
  done

let builtins = [ "sensor"; "receiver"; "lna"; "simple" ]

(* 32 generated specs over the three topologies, sizes and seeds *)
let generated =
  List.concat_map
    (fun seed ->
      [
        Printf.sprintf "gen:n=3,k=2,seed=%d" seed;
        Printf.sprintf "gen:n=4,k=3,seed=%d,topology=star" seed;
        Printf.sprintf "gen:n=5,k=2,seed=%d,topology=random-0.4,coupling=0.25" seed;
        Printf.sprintf "gen:n=6,k=3,seed=%d,topology=random-0.2,coupling=0.5,jitter=0.3"
          seed;
      ])
    (List.init 8 (fun i -> i + 1))

let scenarios =
  lazy (Array.of_list (List.map Adpm_scenarios.Registry.resolve (builtins @ generated)))

let modes = [| Dpm.Conventional; Dpm.Adpm |]

let outcome scenario mode seed =
  match run_sequence scenario mode seed with
  | () -> true
  | exception Failure msg ->
    QCheck.Test.fail_reportf "%s/%s seed %d: %s" scenario.Scenario.sc_name
      (Dpm.mode_to_string mode) seed msg

(* every scenario in both modes, then random (scenario, mode, seed)
   triples *)
let test_every_scenario () =
  Array.iteri
    (fun i scenario ->
      Array.iter
        (fun mode ->
          try run_sequence scenario mode (i + 1)
          with Failure msg ->
            Alcotest.failf "%s/%s: %s" scenario.Scenario.sc_name
              (Dpm.mode_to_string mode) msg)
        modes)
    (Lazy.force scenarios)

let random_sequences =
  QCheck.Test.make ~name:"dense transition matches the reference" ~count:120
    QCheck.(triple (int_bound 1000) bool (int_bound 1_000_000))
    (fun (i, conventional, seed) ->
      let scs = Lazy.force scenarios in
      outcome scs.(i mod Array.length scs)
        (if conventional then Dpm.Conventional else Dpm.Adpm)
        seed)

let suite =
  [
    Alcotest.test_case "every scenario, both modes" `Quick test_every_scenario;
    QCheck_alcotest.to_alcotest random_sequences;
  ]
