open Adpm_util
open Adpm_core

type aggregate = {
  a_scenario : string;
  a_mode : Dpm.mode;
  a_runs : int;
  a_completed : int;
  a_ops : Stats_acc.t;
  a_evals : Stats_acc.t;
  a_evals_per_op : Stats_acc.t;
  a_spins : Stats_acc.t;
  a_violations : Stats_acc.t;
}

let aggregate summaries =
  match summaries with
  | [] -> invalid_arg "Report.aggregate: no runs"
  | first :: _ ->
    List.iter
      (fun s ->
        if
          (not (String.equal s.Metrics.s_scenario first.Metrics.s_scenario))
          || s.Metrics.s_mode <> first.Metrics.s_mode
        then invalid_arg "Report.aggregate: mixed scenarios or modes")
      summaries;
    let ops = Stats_acc.create () in
    let evals = Stats_acc.create () in
    let per_op = Stats_acc.create () in
    let spins = Stats_acc.create () in
    let violations = Stats_acc.create () in
    let completed = ref 0 in
    List.iter
      (fun s ->
        if s.Metrics.s_completed then incr completed;
        Stats_acc.add_int ops s.Metrics.s_operations;
        Stats_acc.add_int evals s.Metrics.s_evaluations;
        (* zero-op runs have no per-op cost (documented nan); skipping them
           keeps one degenerate run from poisoning the aggregate mean *)
        if s.Metrics.s_operations > 0 then
          Stats_acc.add per_op (Metrics.evaluations_per_op s);
        Stats_acc.add_int spins s.Metrics.s_spins;
        Stats_acc.add_int violations (Metrics.violations_found s))
      summaries;
    {
      a_scenario = first.Metrics.s_scenario;
      a_mode = first.Metrics.s_mode;
      a_runs = List.length summaries;
      a_completed = !completed;
      a_ops = ops;
      a_evals = evals;
      a_evals_per_op = per_op;
      a_spins = spins;
      a_violations = violations;
    }

let runs ~jobs cfg scenario ~seeds =
  if seeds < 1 then invalid_arg "Report.runs: seeds < 1";
  Engine.run_many ~jobs cfg scenario ~seeds:(List.init seeds (fun i -> i + 1))

let sweep ~jobs cfg scenario ~seeds = aggregate (runs ~jobs cfg scenario ~seeds)

let completion a = float_of_int a.a_completed /. float_of_int a.a_runs
let safe_div a b = if b = 0. then infinity else a /. b

(* One pass over every record, accumulating into arrays indexed by op
   number (index 0 is the ADPM setup record, excluded as before). Indices
   no run reached are skipped — the old per-index rescan was quadratic in
   run length and silently reported 0 for such gaps instead of the
   documented survivor mean. *)
let mean_profile summaries =
  let max_index =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc r -> max acc r.Metrics.m_index)
          acc s.Metrics.s_profile)
      0 summaries
  in
  let n = Array.make (max_index + 1) 0 in
  let viols = Array.make (max_index + 1) 0. in
  let evals = Array.make (max_index + 1) 0. in
  List.iter
    (fun s ->
      List.iter
        (fun r ->
          let i = r.Metrics.m_index in
          if i >= 1 then begin
            n.(i) <- n.(i) + 1;
            viols.(i) <- viols.(i) +. float_of_int r.Metrics.m_new_violations;
            evals.(i) <- evals.(i) +. float_of_int r.Metrics.m_evaluations
          end)
        s.Metrics.s_profile)
    summaries;
  List.filter_map
    (fun i ->
      if n.(i) = 0 then None
      else
        let c = float_of_int n.(i) in
        Some (i, viols.(i) /. c, evals.(i) /. c))
    (List.init max_index (fun i -> i + 1))

let comparison_table ~title aggregates =
  let table =
    Table.create ~title
      [
        "Scenario"; "Mode"; "Runs"; "Done"; "Ops (mean)"; "Ops (sd)";
        "Evals (mean)"; "Evals/op"; "Spins (mean)"; "Violations";
      ]
  in
  Table.set_align table
    [
      Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
      Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
    ];
  let cell fmt v = if Float.is_nan v then "n/a" else Printf.sprintf fmt v in
  List.iter
    (fun a ->
      Table.add_row table
        [
          a.a_scenario;
          Dpm.mode_to_string a.a_mode;
          string_of_int a.a_runs;
          string_of_int a.a_completed;
          cell "%.1f" (Stats_acc.mean a.a_ops);
          cell "%.1f" (Stats_acc.stddev a.a_ops);
          cell "%.0f" (Stats_acc.mean a.a_evals);
          cell "%.2f" (Stats_acc.mean a.a_evals_per_op);
          cell "%.2f" (Stats_acc.mean a.a_spins);
          cell "%.1f" (Stats_acc.mean a.a_violations);
        ])
    aggregates;
  Table.render table
