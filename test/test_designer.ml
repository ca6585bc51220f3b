(* The dense designer against its string-keyed oracle ([Designer_oracle]):
   the view's outputs, tool runs and headroom scoring on random partial
   assignments of the built-ins and generated networks, the tabu fast
   path against its [%.9g] keys, and the cached view across problem
   changes. *)

open Adpm_util
open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_teamsim
module Oracle = Designer_oracle

let builtins = [ "sensor"; "receiver"; "lna"; "simple" ]

let gen_specs =
  List.init 16 (fun i ->
      Printf.sprintf "gen:n=%d,k=%d,seed=%d,topology=%s,coupling=%g,jitter=%g"
        [| 2; 3; 5; 8; 16 |].(i mod 5)
        (1 + (i mod 3))
        (100 + i)
        [| "ring"; "star"; "random-0.4"; "random-0.2" |].(i mod 4)
        (if i mod 2 = 0 then 0.25 else 0.5)
        (if i mod 3 = 0 then 0.3 else 0.))

(* bitwise rendering, so -0. and 0. (and NaN payloads) differ *)
let show_value = function
  | Value.Num x -> Printf.sprintf "%h" x
  | Value.Sym s -> s

let show_assignments l =
  List.map (fun (p, v) -> Printf.sprintf "%s=%s" p (show_value v)) l

let show_choice = Option.map (Printf.sprintf "%h")

let value_in rng dom =
  match dom with
  | Domain.Continuous iv when Interval.is_bounded iv ->
    (* bounds and the middle now and then: clamping and ties live there *)
    Some
      (match Rng.int rng 6 with
      | 0 -> Interval.lo iv
      | 1 -> Interval.hi iv
      | 2 -> Interval.midpoint iv
      | _ -> Rng.float_range rng (Interval.lo iv) (Interval.hi iv))
  | Domain.Finite arr -> Some (Rng.pick_array rng arr)
  | Domain.Continuous _ | Domain.Empty | Domain.Symbolic _ -> None

(* Assign a random subset of the numeric properties; on odd trials, also
   set every tool output the oracle can compute to exactly that value, so
   the "differs from the network" filter has something to drop. *)
let scramble rng sc dpm trial =
  let net = Dpm.network dpm in
  List.iter
    (fun name ->
      let p = Network.find_prop net name in
      if Domain.is_numeric p.Network.p_initial && Rng.int rng 3 > 0 then
        match value_in rng p.Network.p_initial with
        | Some v -> Network.assign net name (Value.Num v)
        | None -> ())
    (Network.prop_names net);
  if trial mod 2 = 1 then
    List.iter
      (fun designer ->
        let _, derived =
          Oracle.outputs ~models:sc.Scenario.sc_models net
            (Oracle.addressable dpm designer)
        in
        List.iter
          (fun (prop, v) -> Network.assign net prop v)
          (Oracle.recompute_derived ~models:sc.Scenario.sc_models net
             ~targets:derived None))
      (Dpm.designers dpm);
  if trial mod 3 <> 2 then ignore (Dpm.run_propagation dpm)

let disagreements spec =
  let sc = Adpm_scenarios.Registry.resolve spec in
  let models = sc.Scenario.sc_models in
  let rng = Rng.create (Hashtbl.hash spec) in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (* one designer per name for every trial: nothing it remembers from
     deciding on one network may leak into the next *)
  let team = Hashtbl.create 8 in
  let designer influence name =
    match Hashtbl.find_opt team name with
    | Some d -> d
    | None ->
      let d =
        Designer.create (Config.default ~mode:Dpm.Adpm ~seed:1) ~rng:(Rng.create 1)
          ~influence name
      in
      Hashtbl.replace team name d;
      d
  in
  for trial = 0 to 5 do
    let mode = if trial mod 2 = 0 then Dpm.Adpm else Dpm.Conventional in
    let dpm = sc.Scenario.sc_build ~mode in
    let net = Dpm.network dpm in
    scramble rng sc dpm trial;
    let influence = Compiled.influence (Scenario.compiled sc ~mode) in
    List.iter
      (fun name ->
        let d = designer influence name in
        let free, derived = Oracle.outputs ~models net (Oracle.addressable dpm name) in
        if Designer.outputs d dpm <> (free, derived) then
          fail "%s/%d/%s: outputs" spec trial name;
        let check_run assign =
          let want =
            Oracle.recompute_derived ~models net ~targets:derived assign
          in
          let got = Designer.tool_run d dpm ?assign () in
          if show_assignments got <> show_assignments want then
            fail "%s/%d/%s: tool run [%s] vs oracle [%s]" spec trial name
              (String.concat " " (show_assignments got))
              (String.concat " " (show_assignments want))
        in
        check_run None;
        (* a tool output assigned by hand reads its own model's value *)
        List.iter
          (fun prop ->
            match value_in rng (Network.find_prop net prop).Network.p_initial with
            | Some x -> check_run (Some (prop, x))
            | None -> ())
          derived;
        List.iter
          (fun prop ->
            let p = Network.find_prop net prop in
            (match value_in rng p.Network.p_initial with
            | Some x -> check_run (Some (prop, x))
            | None -> ());
            let dom =
              let feasible = Network.feasible_id net p.Network.p_id in
              if Domain.is_empty feasible then p.Network.p_initial else feasible
            in
            let want, evals =
              Oracle.headroom ~models net ~targets:derived ~infl:influence
                ~is_tabu:(fun _ _ -> false)
                prop dom
            in
            let before = Dpm.eval_count dpm in
            let got = Designer.headroom_value d dpm prop dom in
            let charged = Dpm.eval_count dpm - before in
            if show_choice got <> show_choice want || charged <> evals then
              fail "%s/%d/%s: headroom for %s: %s (%d evals) vs oracle %s (%d)"
                spec trial name prop
                (Option.value ~default:"-" (show_choice got))
                charged
                (Option.value ~default:"-" (show_choice want))
                evals)
          free)
      (Dpm.designers dpm)
  done;
  List.rev !errs

let test_against_oracle specs () =
  Alcotest.(check (list string)) "no disagreement" [] (List.concat_map disagreements specs)

(* {2 The tabu fast path} *)

(* Values around places where [%.9g] changes its output or where the
   fast path's two shortcuts meet: equal to nine digits, either side of
   a rounding boundary, signed zeros, subnormals, the ends of the range
   and the non-finite values. *)
let tabu_probes =
  let rec steps f x n = if n = 0 then [] else let y = f x in y :: steps f y (n - 1) in
  let around x = (x :: steps Float.succ x 3) @ steps Float.pred x 3 in
  List.concat_map around
    [ 1.23456789; 1.234567891; 1.2345678949; 1.2345678951; 1.0000000005;
      9.9999999995; 123456789.5; 0.30000000000000004; 2.5e-5; -7.0000000049;
      1e300; 1.0000000005e300; -1e300; 1e-300; 1.0000000005e-300; 0.;
      -0.; 5e-324; 1e-310; 1.0000000005e-310; Float.max_float;
      -.Float.max_float; 2.2250738585072014e-308 ]
  @ [ Float.nan; -.Float.nan; Int64.float_of_bits 0x7ff8000000000123L;
      Int64.float_of_bits 0x7ff0000000000001L; infinity; neg_infinity ]

let test_tabu_fast_path () =
  let mismatches = ref [] in
  List.iter
    (fun w ->
      let t = Tabu.create () in
      Tabu.add t 3 w;
      List.iter
        (fun v ->
          let want = String.equal (Oracle.tabu_key "p" v) (Oracle.tabu_key "p" w) in
          if Tabu.mem t 3 v <> want then
            mismatches := Printf.sprintf "stored %h, probe %h" w v :: !mismatches;
          if Tabu.mem t 2 v then
            mismatches := Printf.sprintf "prop 2 sees prop 3's %h" w :: !mismatches)
        tabu_probes)
    tabu_probes;
  Alcotest.(check (list string)) "agrees with the key table" [] !mismatches

let qcheck_tabu =
  let gen =
    QCheck.Gen.(
      let* e = int_range (-320) 300 in
      let* m = float_range 1. 10. in
      let* rel = oneofl [ 0.; 1e-10; 4e-10; 5e-10; 6e-10; 1e-9; 5e-9; 1e-8; 1e-7 ] in
      let* sign = oneofl [ 1.; -1. ] in
      let* stored = list_size (int_range 1 4) (float_range 0.999 1.001) in
      let w = sign *. m *. (10. ** float_of_int e) in
      return (List.map (fun f -> w *. f) stored, w *. (1. +. rel)))
  in
  QCheck.Test.make ~name:"tabu fast path matches %.9g keys" ~count:2000
    (QCheck.make
       ~print:(fun (ws, v) ->
         Printf.sprintf "stored [%s], probe %h"
           (String.concat "; " (List.map (Printf.sprintf "%h") ws))
           v)
       gen)
    (fun (ws, v) ->
      let t = Tabu.create () in
      List.iter (Tabu.add t 0) ws;
      let keys = List.map (Oracle.tabu_key "x") ws in
      Tabu.mem t 0 v = List.mem (Oracle.tabu_key "x" v) keys)

(* {2 The headroom tie rule} *)

(* One designer owning one parameter x in [0, 10] and one constraint
   over it, scored by the headroom policy on its whole range. *)
let headroom_choice lhs rhs =
  let net = Network.create () in
  Network.add_prop net "x" (Domain.continuous 0. 10.);
  let c = Network.add_constraint net ~name:"c" lhs Constr.Ge rhs in
  let top =
    Problem.make ~id:0 ~name:"top" ~owner:"alice" ~outputs:[ "x" ]
      ~constraints:[ c.Constr.id ] ()
  in
  let dpm = Dpm.create ~mode:Dpm.Adpm net ~objects:[] ~top in
  let influence = Influence.analyse ~models:[] net in
  let d =
    Designer.create (Config.default ~mode:Dpm.Adpm ~seed:1) ~rng:(Rng.create 1)
      ~influence "alice"
  in
  Designer.headroom_value d dpm "x" (Domain.continuous 0. 10.)

let test_headroom_ties () =
  let x = Expr.var "x" and k = Expr.const in
  (* x >= 20: every candidate is violated by less than 1 normalised unit,
     so [-1e18 +. s] ties them all and the first, lowest, wins — not the
     least violated (9.) *)
  Alcotest.(check (option (float 0.))) "small violations tie: lowest wins"
    (Some 1.) (headroom_choice x (k 20.));
  (* 1000 x - 20000 >= 0: violations of 11000 to 19000 normalised units
     are far apart at the 128 spacing near 1e18, so the least violated
     wins *)
  Alcotest.(check (option (float 0.))) "large violations rank"
    (Some 9.)
    (headroom_choice Expr.((k 1000. * x) - k 20000.) (k 0.));
  (* a satisfied candidate beats any violated one *)
  Alcotest.(check (option (float 0.))) "margins beat violations" (Some 9.)
    (headroom_choice x (k 8.))

(* Constraints whose sides have no value are skipped but still charged:
   one evaluation per connected constraint per candidate. *)
let test_headroom_charges_skipped () =
  let net = Network.create () in
  Network.add_prop net "x" (Domain.continuous 0. 10.);
  Network.add_prop net "y" (Domain.continuous (-5.) (-1.));
  Network.add_prop net "free" (Domain.continuous neg_infinity infinity);
  let x = Expr.var "x" in
  let cs =
    [
      Network.add_constraint net ~name:"ok" x Constr.Le (Expr.const 9.5);
      (* ln of y's (negative) midpoint: not finite *)
      Network.add_constraint net ~name:"nan" Expr.(x + Ln (var "y")) Constr.Le
        (Expr.const 3.);
      (* an unbounded, unassigned property: no value at all *)
      Network.add_constraint net ~name:"none" x Constr.Le (Expr.var "free");
    ]
  in
  let top =
    Problem.make ~id:0 ~name:"top" ~owner:"alice" ~outputs:[ "x" ]
      ~constraints:(List.map (fun c -> c.Constr.id) cs) ()
  in
  let dpm = Dpm.create ~mode:Dpm.Adpm net ~objects:[] ~top in
  let influence = Influence.analyse ~models:[] net in
  let d =
    Designer.create (Config.default ~mode:Dpm.Adpm ~seed:1) ~rng:(Rng.create 1)
      ~influence "alice"
  in
  let dom = Domain.continuous 0. 10. in
  let want, evals =
    Oracle.headroom ~models:[] net ~targets:[] ~infl:influence
      ~is_tabu:(fun _ _ -> false) "x" dom
  in
  let got = Designer.headroom_value d dpm "x" dom in
  Alcotest.(check (option (float 0.))) "same choice as the oracle" want got;
  Alcotest.(check int) "5 candidates x 3 constraints charged" 15 evals;
  Alcotest.(check int) "and the designer charges them all" evals
    (Dpm.eval_count dpm)

(* {2 The cached view} *)

(* The warm designer chose before the change, so its view was cached;
   the fresh one starts cold. Given the same RNG state they must make
   the same choice, and the warm designer's outputs must be the fresh
   ones. *)
let same_choice what sc dpm ~warm ~rng ~change =
  let influence = Compiled.influence (Scenario.compiled sc ~mode:(Dpm.mode dpm)) in
  let cfg = Config.default ~mode:(Dpm.mode dpm) ~seed:1 in
  let before = Designer.outputs warm dpm in
  change ();
  let fresh = Designer.create cfg ~rng:(Rng.copy rng) ~influence "alice" in
  let after = Designer.outputs fresh dpm in
  Alcotest.(check bool) (what ^ ": the outputs changed") true (before <> after);
  Alcotest.(check bool) (what ^ ": warm outputs follow") true
    (Designer.outputs warm dpm = after);
  let describe = Option.map (Format.asprintf "%a" Operator.pp) in
  let fresh_op = describe (Designer.choose_operation fresh dpm) in
  Alcotest.(check (option string)) (what ^ ": same choice") fresh_op
    (describe (Designer.choose_operation warm dpm))

let test_view_follows_problems mode () =
  let sc = Adpm_scenarios.Registry.resolve "simple" in
  let dpm = sc.Scenario.sc_build ~mode in
  ignore (Dpm.run_propagation dpm);
  let influence = Compiled.influence (Scenario.compiled sc ~mode) in
  let rng = Rng.create 9 in
  let warm =
    Designer.create (Config.default ~mode ~seed:1) ~rng ~influence "alice"
  in
  ignore (Designer.choose_operation warm dpm : Operator.t option);
  (* a decomposition hands alice bob's parameters in a new subproblem *)
  let top = Dpm.top_problem dpm in
  let spec =
    {
      Operator.sp_name = "extra";
      sp_owner = "alice";
      sp_inputs = [];
      sp_outputs = [ "xb1"; "xb2" ];
      sp_constraints = [];
      sp_depends_on_names = [];
      sp_object = None;
    }
  in
  same_choice "decompose" sc dpm ~warm ~rng ~change:(fun () ->
      ignore
        (Dpm.apply dpm
           (Operator.decompose ~designer:top.Problem.pr_owner
              ~problem:top.Problem.pr_id [ spec ])
          : Dpm.result));
  (* her original subsystem starts waiting on something *)
  let sub_a =
    List.find
      (fun p -> String.equal p.Problem.pr_name "subsystem-A")
      (Dpm.problems dpm)
  in
  same_choice "waiting" sc dpm ~warm ~rng ~change:(fun () ->
      Problem.set_status sub_a Problem.Waiting)

let suite =
  [
    ("built-ins agree with the oracle", `Quick, test_against_oracle builtins);
    ("generated networks agree with the oracle", `Quick, test_against_oracle gen_specs);
    ("tabu fast path on adversarial pairs", `Quick, test_tabu_fast_path);
    QCheck_alcotest.to_alcotest qcheck_tabu;
    ("headroom ties below the 1e18 spacing", `Quick, test_headroom_ties);
    ("headroom charges skipped constraints", `Quick, test_headroom_charges_skipped);
    ("cached view follows problems (ADPM)", `Quick, test_view_follows_problems Dpm.Adpm);
    ( "cached view follows problems (conventional)",
      `Quick,
      test_view_follows_problems Dpm.Conventional );
  ]
