(* Relaxed-feasibility queries run on a scratch box store instead of a
   copy of the network.

   The oracle is the former path: a network in the same state, with the
   target and the unpinned properties unassigned, propagated from scratch
   by [Propagate.run]. It is rebuilt from the scenario and the recorded
   assignments rather than copied, so it shares nothing with the queried
   network. QCheck compares the domain (bit for bit) and the evaluation
   charge on the four built-ins and on generated networks, from random
   partial assignments, random unpin sets and two revision budgets, and
   checks that a query leaves the queried network's revision, persisted
   propagation state and dirty set as they were. *)

open Adpm_interval
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

let network sc = Dpm.network (sc.Scenario.sc_build ~mode:Dpm.Adpm)

let numeric net =
  List.filter
    (fun name -> Domain.is_numeric (Network.initial_domain net name))
    (Network.prop_names net)

(* a value inside the initial range, its endpoints included *)
let random_value rs net name =
  match Domain.hull (Network.initial_domain net name) with
  | Some iv when Interval.is_bounded iv -> (
    match Random.State.int rs 5 with
    | 0 -> Interval.lo iv
    | 1 -> Interval.hi iv
    | _ ->
      Float.min (Interval.hi iv)
        (Interval.lo iv +. Random.State.float rs (Interval.width iv)))
  | Some iv -> Interval.midpoint iv
  | None -> invalid_arg name

let pick rs l = List.nth l (Random.State.int rs (List.length l))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_domain a b =
  Domain.equal a b
  &&
  match (Domain.hull a, Domain.hull b) with
  | Some x, Some y ->
    same_float (Interval.lo x) (Interval.lo y)
    && same_float (Interval.hi x) (Interval.hi y)
  | None, None -> true
  | Some _, None | None, Some _ -> false

let state_of net =
  ( Network.revision net,
    List.sort compare (Network.dirty_props net),
    Network.prop_state net,
    Option.map
      (fun ps ->
        ( Array.copy ps.Network.ps_lo,
          Array.copy ps.Network.ps_hi,
          Array.copy ps.Network.ps_mask,
          Hashtbl.length ps.Network.ps_empties ))
      (Network.prop_state net) )

let same_state (rev, dirty, ps, contents) (rev', dirty', ps', contents') =
  rev = rev' && dirty = dirty'
  && (match (ps, ps') with
     | Some a, Some b -> a == b
     | None, None -> true
     | Some _, None | None, Some _ -> false)
  &&
  match (contents, contents') with
  | Some (lo, hi, mask, e), Some (lo', hi', mask', e') ->
    Array.for_all2 same_float lo lo'
    && Array.for_all2 same_float hi hi'
    && mask = mask' && e = e'
  | None, None -> true
  | Some _, None | None, Some _ -> false

(* Every disagreement of [seed]'s case on [sc], described. *)
let disagreements sc seed =
  let rs = Random.State.make [| seed |] in
  let net = network sc in
  let props = numeric net in
  let assignments =
    List.filter_map
      (fun name ->
        if Random.State.int rs 3 = 0 then Some (name, random_value rs net name)
        else None)
      props
  in
  let assign net (name, x) = Network.assign net name (Value.Num x) in
  (* the first half before a propagation that persists its state, the
     rest after it, so the queried network carries a stored state and a
     dirty set *)
  let half = List.length assignments / 2 in
  List.iteri (fun i a -> if i < half then assign net a) assignments;
  ignore (Propagate.run_incremental_and_apply net);
  List.iteri (fun i a -> if i >= half then assign net a) assignments;
  let max_revisions = if Random.State.int rs 4 = 0 then 25 else 10_000 in
  List.concat_map
    (fun q ->
      let target = pick rs (Network.prop_names net) in
      let unpin =
        List.init (Random.State.int rs 4) (fun _ -> pick rs props)
      in
      let what =
        Printf.sprintf "query %d (target %s, unpin [%s], budget %d)" q target
          (String.concat "; " unpin) max_revisions
      in
      let before = state_of net in
      let d, evals =
        Propagate.relaxed_feasible_group ~max_revisions net ~target ~unpin
      in
      let unchanged = same_state before (state_of net) in
      let oracle = network sc in
      List.iter (assign oracle) assignments;
      Network.unassign oracle target;
      List.iter (Network.unassign oracle) unpin;
      let outcome = Propagate.run ~max_revisions oracle in
      let d' = outcome.Propagate.feasible.(Network.prop_id oracle target) in
      List.concat
        [
          (if same_domain d d' then []
           else
             [
               Printf.sprintf "%s: domain %s, oracle %s" what
                 (Domain.to_string d) (Domain.to_string d');
             ]);
          (if evals = outcome.Propagate.evaluations then []
           else
             [
               Printf.sprintf "%s: %d evaluations, oracle %d" what evals
                 outcome.Propagate.evaluations;
             ]);
          (if unchanged then [] else [ what ^ ": the network changed" ]);
        ])
    [ 1; 2; 3 ]

let agrees sc seed =
  match disagreements sc seed with
  | [] -> true
  | bad ->
    QCheck.Test.fail_reportf "%s: %s" sc.Scenario.sc_name
      (String.concat "\n" bad)

let qcheck_builtins =
  QCheck.Test.make ~name:"built-ins: scratch-store query = rebuilt run"
    ~count:120
    QCheck.(pair (int_bound (List.length Registry.builtin - 1)) small_nat)
    (fun (which, seed) -> agrees (List.nth Registry.builtin which) seed)

let qcheck_generated =
  QCheck.Test.make ~name:"generated: scratch-store query = rebuilt run"
    ~count:60
    (QCheck.make
       ~print:(fun (spec, seed) -> Printf.sprintf "%s seed=%d" spec seed)
       QCheck.Gen.(pair Test_influence.gen_spec small_nat))
    (fun (spec, seed) -> agrees (Registry.resolve spec) seed)

(* The memo in [Dpm] keys on the revision: a query must not move it, and
   repeating one is answered from the memo without charging again. *)
let test_dpm_memo_survives_queries () =
  let dpm = (Registry.resolve "sensor").Scenario.sc_build ~mode:Dpm.Adpm in
  ignore (Dpm.run_propagation dpm);
  let net = Dpm.network dpm in
  let rev = Network.revision net in
  let target = List.hd (numeric net) in
  let d = Dpm.relaxed_feasible dpm target in
  let evals = Dpm.eval_count dpm in
  Alcotest.(check int) "revision unchanged" rev (Network.revision net);
  Alcotest.(check bool) "same answer" true
    (same_domain d (Dpm.relaxed_feasible dpm target));
  Alcotest.(check int) "a repeat is not charged" evals (Dpm.eval_count dpm)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_builtins;
    QCheck_alcotest.to_alcotest qcheck_generated;
    ("Dpm memo survives queries", `Quick, test_dpm_memo_survives_queries);
  ]
