(* Randomized equivalence of the incremental and full propagation engines.

   The incremental engine restarts HC4 from the box store persisted by the
   previous fixpoint, seeding the worklist with only the dirty properties'
   constraints; the soundness argument (see DESIGN.md) says the result must
   be *identical* — not approximately equal — to a from-scratch run. This
   suite drives both engines through the same randomized assign/unassign
   sequences over the bundled scenario networks (including the generated
   family) and asserts bit-identical feasible subspaces, constraint
   statuses, and violation sets after every step.

   The final sweep re-classifies only what the fixpoint moved, against
   the result the last sweep persisted. Its oracle is the literal sweep:
   every subspace refined and every constraint evaluated afresh on the
   persisted boxes, compared bit for bit with the network and with the
   persisted result after every propagation. *)

open Adpm_util
open Adpm_interval
open Adpm_expr
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

(* {2 The change-set sweep against the full one} *)

let hex x = Printf.sprintf "%h" x

let domain_bits = function
  | Domain.Empty -> "empty"
  | Domain.Continuous iv -> hex (Interval.lo iv) ^ ":" ^ hex (Interval.hi iv)
  | Domain.Finite a -> String.concat "," (Array.to_list (Array.map hex a))
  | Domain.Symbolic l -> String.concat "," l

let bits_of domains = List.map domain_bits (Array.to_list domains)
let names_of statuses = List.map Constr.status_to_string (Array.to_list statuses)

(* The sweep of Section 2.2, literally, on the persisted boxes: every
   subspace refined and every constraint's kernel evaluated afresh. *)
let full_sweep net ps =
  let kernels = Network.kernels net and sc = Network.scratch net in
  let carr = Network.constraint_array net in
  let lo = ps.Network.ps_lo and hi = ps.Network.ps_hi in
  let feasible =
    Array.init (Network.prop_count net) (fun pid ->
        let p = Network.prop_by_id net pid in
        if Domain.is_numeric p.Network.p_initial && ps.Network.ps_mask.(pid) then
          Domain.refine p.Network.p_initial (Interval.make lo.(pid) hi.(pid))
        else p.Network.p_initial)
  in
  let statuses =
    Array.init (Array.length carr) (fun cid ->
        if Hashtbl.mem ps.Network.ps_empties cid then Constr.Violated
        else if Hc4.eval_kernel kernels cid sc ~lo ~hi then
          Constr.kernel_status carr.(cid) kernels cid sc
        else Constr.Violated)
  in
  (feasible, statuses)

(* After a propagation: the network and the persisted result both hold
   the full sweep of the persisted boxes, bit for bit; the network's
   subspaces are the persisted ones (pointers); and the charge is the
   full sweep's, one evaluation per constraint on top of the revisions. *)
let check_sweep label net (o : Propagate.outcome) =
  match Network.prop_state net with
  | None -> Alcotest.fail (label ^ ": no persisted result")
  | Some ps ->
    let feasible, statuses = full_sweep net ps in
    let check_bits what want got =
      Alcotest.(check (list string)) (Printf.sprintf "%s: %s" label what) want got
    in
    check_bits "persisted subspaces" (bits_of feasible) (bits_of ps.Network.ps_feasible);
    check_bits "network subspaces" (bits_of feasible)
      (List.init (Network.prop_count net) (fun pid ->
           domain_bits (Network.feasible_id net pid)));
    check_bits "persisted statuses" (names_of statuses) (names_of ps.Network.ps_status);
    check_bits "network statuses" (names_of statuses)
      (List.init (Network.constraint_count net) (fun cid ->
           Constr.status_to_string (Network.status net cid)));
    Alcotest.(check bool)
      (label ^ ": the network points at the persisted subspaces")
      true
      (List.for_all
         (fun pid -> Network.feasible_id net pid == ps.Network.ps_feasible.(pid))
         (List.init (Network.prop_count net) Fun.id));
    Alcotest.(check int) (label ^ ": evaluation charge")
      (o.Propagate.revisions + Network.constraint_count net)
      o.Propagate.evaluations

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
  check_sweep "setup" net_incr (Propagate.run_incremental_and_apply net_incr);
  check_networks_equal "setup" net_full net_incr;
  for step = 1 to steps do
    random_op rng props net_full net_incr;
    Propagate.apply net_full (Propagate.run net_full);
    let label = Printf.sprintf "step %d" step in
    check_sweep label net_incr (Propagate.run_incremental_and_apply net_incr);
    check_networks_equal label net_full net_incr
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

(* {2 Through the DPM: verification overwrites, empties, signed zeros} *)

let same_bits (a : float) b = Int64.bits_of_float a = Int64.bits_of_float b

(* What the lockstep drives did to the persisted states, over all their steps. *)
type coverage = {
  mutable empties_appeared : int;
  mutable empties_cleared : int;
  mutable sign_moves : int; (* a box moved only in the sign of a zero *)
  mutable overwrites : int;
}

let note cov (before : Network.pstate) (after : Network.pstate) =
  let had = Hashtbl.length before.Network.ps_empties > 0
  and has = Hashtbl.length after.Network.ps_empties > 0 in
  if has && not had then cov.empties_appeared <- cov.empties_appeared + 1;
  if had && not has then cov.empties_cleared <- cov.empties_cleared + 1;
  Array.iteri
    (fun pid lo ->
      let lo' = after.Network.ps_lo.(pid)
      and hi = before.Network.ps_hi.(pid)
      and hi' = after.Network.ps_hi.(pid) in
      if lo = lo' && hi = hi' && not (same_bits lo lo' && same_bits hi hi') then
        cov.sign_moves <- cov.sign_moves + 1)
    before.Network.ps_lo

(* A property whose box did not move keeps its subspace's pointer. *)
let check_reuse label (before : Network.pstate) (after : Network.pstate) =
  Array.iteri
    (fun pid d ->
      if
        before.Network.ps_mask.(pid) = after.Network.ps_mask.(pid)
        && same_bits before.Network.ps_lo.(pid) after.Network.ps_lo.(pid)
        && same_bits before.Network.ps_hi.(pid) after.Network.ps_hi.(pid)
      then
        Alcotest.(check bool)
          (Printf.sprintf "%s: property %d keeps its subspace" label pid)
          true
          (d == before.Network.ps_feasible.(pid)))
    after.Network.ps_feasible

let persisted label dpm =
  match Network.prop_state (Dpm.network dpm) with
  | Some ps -> ps
  | None -> Alcotest.fail (label ^ ": no persisted result")

let zero_in name net =
  match Domain.hull (Network.initial_domain net name) with
  | Some iv -> Interval.mem 0. iv
  | None -> false

(* One operation, the same on every DPM: an assignment drawn from the
   initial range (in- and out-of-feasible values, so empties appear), a
   signed zero where the range holds 0 (or a zero already assigned
   turned to the other sign: a box [=] to the stored one but not bit for
   bit), an unassignment (a widening: a full restart), the release of
   every bound argument of the constraints found empty (which clears the
   marks), or a verification's overwrite of a recorded status, which the
   next propagation must undo. *)
let lockstep_op rng props dpms cov =
  let net0 = Dpm.network (List.hd dpms) in
  let each f = List.iter (fun d -> f (Dpm.network d)) dpms in
  let p = Rng.pick rng props in
  let r = Rng.float rng 1.0 in
  let empties =
    match Network.prop_state net0 with
    | Some ps -> Hashtbl.fold (fun cid () acc -> cid :: acc) ps.Network.ps_empties []
    | None -> []
  in
  if empties <> [] && Rng.bool rng then
    List.iter
      (fun cid ->
        List.iter
          (fun arg ->
            if Network.is_bound net0 arg then each (fun net -> Network.unassign net arg))
          (Constr.args (Network.find_constraint net0 cid)))
      empties
  else if r < 0.15 then begin
    let cid = Rng.int rng (Network.constraint_count net0) in
    let s =
      match Network.status net0 cid with
      | Constr.Violated -> Constr.Satisfied
      | Constr.Satisfied | Constr.Consistent -> Constr.Violated
    in
    cov.overwrites <- cov.overwrites + 1;
    each (fun net -> Network.set_status net cid s)
  end
  else if r < 0.35 && Network.is_bound net0 p then
    each (fun net -> Network.unassign net p)
  else if r < 0.55 && zero_in p net0 then begin
    let zeros = List.filter (fun q -> Network.assigned_num net0 q = Some 0.) props in
    if zeros <> [] && Rng.bool rng then begin
      let q = Rng.pick rng zeros in
      let z = Option.get (Network.assigned_num net0 q) in
      each (fun net -> Network.assign net q (Value.Num (-.z)))
    end
    else begin
      let z = if Rng.bool rng then 0. else -0. in
      each (fun net -> Network.assign net p (Value.Num z))
    end
  end
  else
    match Domain.hull (Network.initial_domain net0 p) with
    | None -> ()
    | Some iv ->
      let value = Rng.float_range rng (Interval.lo iv) (Interval.hi iv) in
      each (fun net -> Network.assign net p (Value.Num value))

let no_coverage () =
  { empties_appeared = 0; empties_cleared = 0; sign_moves = 0; overwrites = 0 }

(* A DPM elaborated and propagated through [Dpm.run_propagation], and an
   instance started from the compiled template's setup, driven in
   lockstep: after every propagation each holds the full sweep of its
   persisted boxes, and the two agree bit for bit. With [cut], every
   propagation's revision budget is that fraction of the constraint
   count, so fixpoints stop early and empty marks depend on where they
   stop, not on the boxes alone. *)
let lockstep ?(cov = no_coverage ()) ?cut name seed steps =
  let sc = Registry.resolve name in
  let elaborated = sc.Scenario.sc_build ~mode:Dpm.Adpm in
  let n_con = Network.constraint_count (Dpm.network elaborated) in
  let max_revisions =
    Option.map (fun f -> max 1 (int_of_float (f *. float n_con))) cut
  in
  let setup = Dpm.run_propagation ?max_revisions elaborated in
  check_sweep (name ^ " setup") (Dpm.network elaborated) setup;
  let started, _ = Compiled.start ?max_revisions (Scenario.compiled sc ~mode:Dpm.Adpm) in
  check_sweep (name ^ " compiled setup") (Dpm.network started) setup;
  let dpms = [ elaborated; started ] in
  let rng = Rng.create seed in
  let props = assignable_props (Dpm.network elaborated) in
  for step = 1 to steps do
    lockstep_op rng props dpms cov;
    let states =
      List.map
        (fun dpm ->
          let label = Printf.sprintf "%s seed %d step %d" name seed step in
          let before = persisted label dpm in
          let o = Dpm.run_propagation ?max_revisions dpm in
          let after = persisted label dpm in
          check_sweep label (Dpm.network dpm) o;
          check_reuse label before after;
          note cov before after;
          (o.Propagate.evaluations, bits_of after.Network.ps_feasible,
           names_of after.Network.ps_status))
        dpms
    in
    match states with
    | [ a; b ] ->
      Alcotest.(check (triple int (list string) (list string)))
        (Printf.sprintf "%s seed %d step %d: compiled instance = elaboration" name
           seed step)
        a b
    | _ -> assert false
  done;
  cov

(* label, scenario name *)
let lockstep_scenarios =
  [
    ("simple", "simple");
    ("lna", "lna");
    ("sensor", "sensor");
    ("receiver", "receiver");
    ("gen-star-4", "gen:n=4,k=3,seed=7,topology=star");
    ("gen-random-8", "gen:n=8,k=3,seed=1,topology=random-0.4,coupling=0.25");
  ]

let test_lockstep name () =
  let cov = no_coverage () in
  List.iter (fun seed -> ignore (lockstep ~cov name seed 25 : coverage)) [ 1; 2; 3 ];
  List.iter
    (fun (seed, cut) -> ignore (lockstep ~cov ~cut name seed 25 : coverage))
    [ (4, 0.5); (5, 1.5); (6, 3.) ];
  Alcotest.(check bool) "verification overwrites interleaved" true (cov.overwrites > 0);
  Alcotest.(check bool) "empty marks appeared" true (cov.empties_appeared > 0);
  Alcotest.(check bool) "empty marks cleared" true (cov.empties_cleared > 0);
  let net = build (Registry.resolve name) in
  if List.exists (fun p -> zero_in p net) (assignable_props net) then
    Alcotest.(check bool) "a box moved only in the sign of a zero" true
      (cov.sign_moves > 0)

(* An empty mark flips while every box stays put. [x - x >= 1] on
   [0, 1] is empty under HC4's backward projections while its forward
   evaluation, blind to the shared [x], finds it merely consistent. The
   first propagation revises it and marks it; the second, cut after one
   revision, never reaches it, so its status must come from evaluation,
   not from the stored [Violated]; the third marks it again. *)
let test_empty_mark_flip () =
  let net = Network.create () in
  Network.add_prop net "x" (Domain.continuous 0. 1.);
  Network.add_prop net "y" (Domain.continuous 0. 10.);
  ignore
    (Network.add_constraint net ~name:"ycap" (Expr.var "y") Constr.Le (Expr.const 5.));
  let c =
    Network.add_constraint net ~name:"dependency"
      Expr.(var "x" - var "x")
      Constr.Ge (Expr.const 1.)
  in
  let marked () =
    match Network.prop_state net with
    | Some ps -> Hashtbl.mem ps.Network.ps_empties c.Constr.id
    | None -> false
  in
  check_sweep "first" net (Propagate.run_incremental_and_apply net);
  Alcotest.(check bool) "marked empty" true (marked ());
  Network.assign net "y" (Value.Num 3.);
  check_sweep "cut" net (Propagate.run_incremental_and_apply ~max_revisions:1 net);
  Alcotest.(check bool) "mark gone" false (marked ());
  Alcotest.(check status) "evaluated again" Constr.Consistent
    (Network.status net c.Constr.id);
  Network.assign net "y" (Value.Num 4.);
  check_sweep "whole" net (Propagate.run_incremental_and_apply net);
  Alcotest.(check bool) "marked again" true (marked ());
  Alcotest.(check status) "violated again" Constr.Violated
    (Network.status net c.Constr.id)

let sweep_oracle =
  let name i = snd (List.nth lockstep_scenarios i) in
  let cuts = [| None; Some 0.5; Some 1.; Some 2.; Some 4. |] in
  QCheck.Test.make ~name:"full-sweep oracle (random runs)" ~count:24
    (QCheck.make
       ~print:(fun (i, seed, c) ->
         Printf.sprintf "%s seed %d budget %s" (name i) seed
           (match cuts.(c) with
           | None -> "default"
           | Some f -> Printf.sprintf "%g x constraints" f))
       QCheck.Gen.(
         triple
           (int_bound (List.length lockstep_scenarios - 1))
           (int_range 7 10_000)
           (int_bound (Array.length cuts - 1))))
    (fun (i, seed, c) ->
      ignore (lockstep ?cut:cuts.(c) (name i) seed 12 : coverage);
      true)

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
  @ List.map
      (fun (label, name) ->
        (Printf.sprintf "full-sweep oracle (%s)" label, `Quick, test_lockstep name))
      lockstep_scenarios
  @ [
      ("empty mark flip re-classifies", `Quick, test_empty_mark_flip);
      QCheck_alcotest.to_alcotest sweep_oracle;
    ]
