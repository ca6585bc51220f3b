(* Bechamel micro-benchmarks of the engines underneath the experiments:
   interval arithmetic, HC4 revision (boxed and compiled), full
   propagation fixpoints on the paper's two design cases, one DPM
   transition without propagation and one with it, one simulated
   designer's decision,
   one run's set-up, and complete simulations in both modes. *)

open Bechamel
open Toolkit
open Adpm_util
open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

let interval_mul_test =
  let a = Interval.make 1.5 3.5 and b = Interval.make (-2.) 7. in
  Test.make ~name:"interval mul" (Staged.stage (fun () -> Interval.mul a b))

(* One 9-node expression revised through the boxed interpreter and
   through the compiled kernel the propagation loop runs, on the same
   boxes. *)
let hc4_expr =
  Expr.(
    Sub (Add (Mul (Var "x", Var "y"), Sqrt (Var "z")), Mul (Const 2., Var "w")))

let hc4_vars = [| "x"; "y"; "z"; "w" |]
let hc4_boxes = [| (1., 4.); (0.5, 2.); (0., 9.); (1., 3.) |]
let hc4_target = Interval.make neg_infinity 0.

let hc4_slot name =
  let rec find i = if hc4_vars.(i) = name then i else find (i + 1) in
  find 0

let hc4_revise_test =
  let env name =
    let lo, hi = hc4_boxes.(hc4_slot name) in
    Interval.make lo hi
  in
  Test.make ~name:"HC4 revise (9-node expr)"
    (Staged.stage (fun () -> Hc4.revise ~env hc4_expr hc4_target))

let hc4_revise_kernel_test =
  let k = Hc4.compile ~var_id:hc4_slot hc4_expr ~target:hc4_target in
  let sc = Hc4.scratch ~nodes:(Hc4.max_nodes k) ~slots:(Hc4.max_slots k) in
  let lo = Array.map fst hc4_boxes and hi = Array.map snd hc4_boxes in
  Test.make ~name:"HC4 revise_kernel (9-node expr)"
    (Staged.stage (fun () -> Hc4.revise_kernel k 0 sc ~lo ~hi))

let propagate_test name (scenario : Scenario.t) =
  let dpm = scenario.sc_build ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  Test.make ~name (Staged.stage (fun () -> Propagate.run net))

(* Steady-state repropagation: one assignment perturbs the network, then
   the DCM re-establishes the fixpoint, restarting from the persisted box
   store seeded with the dirty property's constraints. The from-scratch
   fixpoint is the [propagate_test] rows above. *)
let repropagate_test name =
  let dpm = Receiver.scenario.sc_build ~mode:Dpm.Adpm in
  ignore (Dpm.run_propagation dpm);
  let net = Dpm.network dpm in
  Test.make ~name
    (Staged.stage (fun () ->
         Network.assign net "diff-pair-w" (Value.Num 5.);
         Dpm.run_propagation dpm))

(* One DPM transition that runs no propagation: the receiver's top-level
   verification request in conventional mode. After the first request the
   checked constraints are fresh and the rest ineligible, so every run
   measures the transition's own bookkeeping — validation, the known and
   feasible snapshots, problem statuses, the status diff and NM routing —
   beside the HC4 kernel above. *)
let dpm_apply_test =
  let dpm = Receiver.scenario.sc_build ~mode:Dpm.Conventional in
  let top = Dpm.top_problem dpm in
  let op =
    Operator.verification ~designer:top.Problem.pr_owner ~problem:top.Problem.pr_id
      top.Problem.pr_constraints
  in
  Test.make ~name:"DPM apply (receiver, conventional verification)"
    (Staged.stage (fun () -> Dpm.apply dpm op))

(* One ADPM transition: a synthesis that sets one receiver parameter,
   alternating between two values, so every run moves the network and
   pays what an operation pays — the propagation (a restart from scratch:
   the new value lies outside the stored point box), the final sweep
   against the persisted result, applying it, the snapshots and the
   notification diff. *)
let dpm_transition_test =
  let dpm = Receiver.scenario.sc_build ~mode:Dpm.Adpm in
  ignore (Dpm.run_propagation dpm);
  let prop = "diff-pair-w" in
  let owner =
    List.find
      (fun p -> Problem.is_leaf p && List.mem prop p.Problem.pr_outputs)
      (Dpm.problems dpm)
  in
  let op value =
    Operator.synthesis ~designer:owner.Problem.pr_owner ~problem:owner.Problem.pr_id
      [ (prop, Value.Num value) ]
  in
  let ops = [| op 4.; op 5. |] and k = ref 0 in
  Test.make ~name:"DPM apply (receiver, ADPM, 1 parameter alternating)"
    (Staged.stage (fun () ->
         k := 1 - !k;
         Dpm.apply dpm ops.(!k)))

(* One designer decision (f_o) in a mid-run state: [ops] operations into
   a round-robin run of the scenario in which every designer observes
   every outcome, then the first designer that would act decides,
   repeatedly. A decision writes nothing to the DPM but its evaluation
   counter (and the relaxed-feasibility memo), so every run decides from
   the same state; only the designer's RNG moves. *)
let choose_test name spec cfg ~ops =
  let sc = Registry.resolve spec in
  let dpm = sc.Scenario.sc_build ~mode:cfg.Config.mode in
  if cfg.Config.mode = Dpm.Adpm then ignore (Dpm.run_propagation dpm);
  let influence = Compiled.influence (Scenario.compiled sc ~mode:cfg.Config.mode) in
  let rng = Rng.create 7 in
  let team =
    List.map
      (fun n -> Designer.create cfg ~rng:(Rng.split rng) ~influence n)
      (Dpm.designers dpm)
  in
  List.iter (fun d -> Designer.learn_statuses d (Dpm.known_statuses dpm)) team;
  let rec turn = function
    | [] -> turn team
    | d :: rest ->
      if Dpm.op_count dpm >= ops then d :: rest
      else begin
        (match Designer.choose_operation d dpm with
        | Some op ->
          let result = Dpm.apply dpm op in
          List.iter
            (fun peer -> Designer.observe peer dpm ~own:(peer == d) op result)
            team
        | None -> ());
        turn rest
      end
  in
  let chooser =
    match
      List.find_opt
        (fun d -> Designer.choose_operation d dpm <> None)
        (turn team @ team)
    with
    | Some d -> d
    | None -> invalid_arg ("Microbench.choose_test: nobody acts in " ^ spec)
  in
  Test.make ~name (Staged.stage (fun () -> Designer.choose_operation chooser dpm))

(* The set-up a run pays before its first turn: a copy of the compiled
   scenario (after the ADPM setup propagation) and the team. The scenario
   is resolved once, so the template is compiled on the first call and
   every timed call starts from it. *)
let prepare_test name spec cfg =
  let sc = Registry.resolve spec in
  Test.make ~name (Staged.stage (fun () -> Engine.prepare cfg sc))

let simulation_test name scenario mode =
  let cfg = Config.default ~mode ~seed:7 in
  Test.make ~name (Staged.stage (fun () -> Engine.run cfg scenario))

let tests =
  Test.make_grouped ~name:"adpm" ~fmt:"%s %s"
    [
      interval_mul_test;
      hc4_revise_test;
      hc4_revise_kernel_test;
      propagate_test "propagate fixpoint (sensor, 21 constraints)"
        Sensor.scenario;
      propagate_test "propagate fixpoint (receiver, 30 constraints)"
        Receiver.scenario;
      repropagate_test "repropagate after 1 assign (receiver, incremental)";
      dpm_apply_test;
      dpm_transition_test;
      choose_test "designer choose (receiver, conventional, op 40)" "receiver"
        (Config.default ~mode:Dpm.Conventional ~seed:7)
        ~ops:40;
      choose_test "designer choose (gen n=16, ADPM headroom, op 20)"
        "gen:n=16,k=3,seed=5,topology=random-0.2,coupling=0.25"
        { (Config.default ~mode:Dpm.Adpm ~seed:7) with
          Config.value_policy = Config.Headroom }
        ~ops:20;
      prepare_test "engine prepare (sensor, ADPM)" "sensor"
        (Config.default ~mode:Dpm.Adpm ~seed:7);
      prepare_test "engine prepare (gen n=16, ADPM headroom)"
        "gen:n=16,k=3,seed=5,topology=random-0.2,coupling=0.25"
        { (Config.default ~mode:Dpm.Adpm ~seed:7) with
          Config.value_policy = Config.Headroom };
      simulation_test "full simulation (sensor, ADPM)" Sensor.scenario Dpm.Adpm;
      simulation_test "full simulation (sensor, conventional)" Sensor.scenario
        Dpm.Conventional;
    ]

let run ~fast () =
  let quota = Time.second (if fast then 0.25 else 1.0) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 100) () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let entries = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  Printf.printf "%-55s %15s %10s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) ->
        let pretty =
          if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.3f us" (est /. 1e3)
          else Printf.sprintf "%.1f ns" est
        in
        let r2 =
          match Analyze.OLS.r_square result with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "-"
        in
        Printf.printf "%-55s %15s %10s\n" name pretty r2
      | Some [] | None -> Printf.printf "%-55s %15s\n" name "(no estimate)")
    entries
