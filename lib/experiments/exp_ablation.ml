open Adpm_util
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

type teamsim_row = {
  label : string;
  mean_ops : float;
  sd_ops : float;
  mean_evals : float;
  completion : int;
  runs : int;
}

type consistency_row = {
  c_label : string;
  c_mean_window : float;
  c_evaluations : int;
}

type result = {
  teamsim : teamsim_row list;
  consistency : consistency_row list;
}

let teamsim_row ~jobs label cfg seeds =
  let a = Report.sweep ~jobs cfg Receiver.scenario ~seeds in
  {
    label;
    mean_ops = Stats_acc.mean a.Report.a_ops;
    sd_ops = Stats_acc.stddev a.Report.a_ops;
    mean_evals = Stats_acc.mean a.Report.a_evals;
    completion = a.Report.a_completed;
    runs = a.Report.a_runs;
  }

let teamsim_ablation ~jobs seeds =
  let base = Config.default ~mode:Dpm.Adpm ~seed:0 in
  [
    teamsim_row ~jobs "ADPM, all heuristics" base seeds;
    teamsim_row ~jobs "no feasible-subspace ordering (2.3.1)"
      { base with Config.forward_ordering = Config.Random_target }
      seeds;
    teamsim_row ~jobs "most-constrained-first ordering (2.3.2)"
      { base with Config.forward_ordering = Config.Most_constrained }
      seeds;
    teamsim_row ~jobs "no alpha conflict repair (2.3.3)"
      { base with Config.use_alpha_repair = false }
      seeds;
    teamsim_row ~jobs "no monotone direction hints"
      { base with Config.use_monotone_hints = false }
      seeds;
    teamsim_row ~jobs "no constraint-margin repair windows"
      { base with Config.use_relaxed_feasible = false }
      seeds;
    teamsim_row ~jobs "no design-history tabu"
      { base with Config.use_history_tabu = false }
      seeds;
    teamsim_row ~jobs "conventional (lambda = F)"
      (Config.default ~mode:Dpm.Conventional ~seed:0)
      seeds;
  ]

(* DCM consistency comparison: window precision vs evaluation cost on a
   mid-design receiver state (tight gain spec, two analog parameters
   committed) where hull consistency is measurably weaker. *)
let consistency_ablation () =
  let measure label consistency =
    let dpm = (Receiver.with_req_gain 2000.).Scenario.sc_build ~mode:Dpm.Adpm in
    let net = Dpm.network dpm in
    Network.assign net "bias-current" (Value.Num 9.);
    Network.assign net "mixer-gm" (Value.Num 18.);
    let outcome = Propagate.run ~consistency net in
    let windows =
      List.filter_map
        (fun name ->
          let initial = Network.initial_domain net name in
          if Network.is_bound net name || not (Adpm_interval.Domain.is_numeric initial)
          then None
          else
            Some
              (Adpm_interval.Domain.relative_measure ~initial
                 outcome.Propagate.feasible.(Network.prop_id net name)))
        (Network.prop_names net)
    in
    let mean =
      List.fold_left ( +. ) 0. windows /. float_of_int (List.length windows)
    in
    { c_label = label; c_mean_window = mean;
      c_evaluations = outcome.Propagate.evaluations }
  in
  [
    measure "hull consistency (HC4 fixpoint)" `Hull;
    measure "bound shaving, 4 slices" (`Shave 4);
    measure "bound shaving, 8 slices" (`Shave 8);
  ]

let run ?(seeds = 15) ?(jobs = 1) () =
  {
    teamsim = teamsim_ablation ~jobs seeds;
    consistency = consistency_ablation ();
  }

let render r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "=== Ablation (a): ADPM heuristics on the receiver case ===\n\n";
  let table =
    Table.create [ "Configuration"; "Ops (mean)"; "Ops (sd)"; "Evals"; "Done" ]
  in
  Table.set_align table
    [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ];
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.label;
          Printf.sprintf "%.1f" row.mean_ops;
          Printf.sprintf "%.1f" row.sd_ops;
          Printf.sprintf "%.0f" row.mean_evals;
          Printf.sprintf "%d/%d" row.completion row.runs;
        ])
    r.teamsim;
  add "%s\n" (Table.render table);
  add "=== Ablation (c): DCM consistency level (receiver, mid-design state) ===\n\n";
  let table =
    Table.create [ "Consistency"; "Mean relative window"; "Evaluations" ]
  in
  Table.set_align table [ Table.Left; Table.Right; Table.Right ];
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.c_label;
          Printf.sprintf "%.4f" row.c_mean_window;
          string_of_int row.c_evaluations;
        ])
    r.consistency;
  add "%s\n" (Table.render table);
  add "expected shape: shaving buys narrower windows (more precise guidance)\n";
  add "at a higher evaluation cost.\n";
  Buffer.contents buf
