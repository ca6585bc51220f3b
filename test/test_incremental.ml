(* Randomized equivalence of the incremental and full propagation engines.

   The incremental engine restarts HC4 from the box store persisted by the
   previous fixpoint, seeding the worklist with only the dirty properties'
   constraints; the soundness argument (see DESIGN.md) says the result must
   be *identical* — not approximately equal — to a from-scratch run. This
   suite drives both engines through the same randomized assign/unassign
   sequences over the bundled scenario networks (including the generated
   family) and asserts bit-identical feasible subspaces, constraint
   statuses, and violation sets after every step. *)

open Adpm_util
open Adpm_interval
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

let dom = Alcotest.testable Domain.pp Domain.equal
let status = Alcotest.testable Constr.pp_status ( = )

let build scenario = Dpm.network (scenario.Scenario.sc_build ~mode:Dpm.Adpm)

(* Numeric properties with a finite initial range we can draw values from. *)
let assignable_props net =
  List.filter
    (fun p ->
      match Domain.hull (Network.initial_domain net p) with
      | Some iv ->
        Float.is_finite (Interval.lo iv) && Float.is_finite (Interval.hi iv)
      | None -> false)
    (Network.prop_names net)

let violation_ids net =
  List.filter_map
    (fun c ->
      if Network.status net c.Constr.id = Constr.Violated then Some c.Constr.id
      else None)
    (Network.constraints net)
  |> List.sort compare

let check_networks_equal label net_full net_incr =
  List.iter
    (fun p ->
      Alcotest.(check dom)
        (Printf.sprintf "%s: feasible %s" label p)
        (Network.feasible net_full p)
        (Network.feasible net_incr p))
    (Network.prop_names net_full);
  List.iter
    (fun c ->
      Alcotest.(check status)
        (Printf.sprintf "%s: status of %s" label c.Constr.name)
        (Network.status net_full c.Constr.id)
        (Network.status net_incr c.Constr.id))
    (Network.constraints net_full);
  Alcotest.(check (list int))
    (Printf.sprintf "%s: violation set" label)
    (violation_ids net_full) (violation_ids net_incr)

(* Apply the same randomly drawn operation to both networks: mostly
   assignments (uniform in the initial range, so in- and out-of-feasible
   values both occur), some unassignments to exercise the widening
   fallback. *)
let random_op rng props net_full net_incr =
  let p = Rng.pick rng props in
  if Network.is_bound net_full p && Rng.float rng 1.0 < 0.35 then begin
    Network.unassign net_full p;
    Network.unassign net_incr p
  end
  else
    match Domain.hull (Network.initial_domain net_full p) with
    | None -> ()
    | Some iv ->
      let value = Rng.float_range rng (Interval.lo iv) (Interval.hi iv) in
      Network.assign net_full p (Value.Num value);
      Network.assign net_incr p (Value.Num value)

let drive scenario seed steps () =
  let net_full = build scenario and net_incr = build scenario in
  let rng = Rng.create seed in
  let props = assignable_props net_full in
  Propagate.apply net_full (Propagate.run net_full);
  ignore (Propagate.run_incremental_and_apply net_incr);
  check_networks_equal "setup" net_full net_incr;
  for step = 1 to steps do
    random_op rng props net_full net_incr;
    Propagate.apply net_full (Propagate.run net_full);
    ignore (Propagate.run_incremental_and_apply net_incr);
    check_networks_equal (Printf.sprintf "step %d" step) net_full net_incr
  done

let scenarios =
  [
    ("simple", Simple.scenario);
    ("lna", Lna.scenario);
    ("sensor", Sensor.scenario);
    ("receiver", Receiver.scenario);
    ( "generated-4x3",
      Generated.scenario (Generated.default_params ~subsystems:4 ~vars:3) );
    ( "generated-8x4",
      Generated.scenario (Generated.default_params ~subsystems:8 ~vars:4) );
  ]

let suite =
  List.concat_map
    (fun (name, scenario) ->
      List.map
        (fun seed ->
          ( Printf.sprintf "incremental = full (%s, seed %d)" name seed,
            `Quick,
            drive scenario seed 15 ))
        [ 1; 2; 3 ])
    scenarios
