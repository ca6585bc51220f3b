open Adpm_util
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

type series = { ops : int array; violations : float array; evaluations : float array }

type result = {
  conventional : series;
  adpm : series;
  conv_total_viol : float;
  adpm_total_viol : float;
  conv_total_evals : float;
  adpm_total_evals : float;
  conv_last_violation_op : int;
  adpm_last_violation_op : int;
  conv_mean_ops : float;
  adpm_mean_ops : float;
}

let profile_series ~jobs mode seeds =
  let summaries =
    Report.runs ~jobs (Config.default ~mode ~seed:0) Simple.scenario ~seeds
  in
  let mean = Report.mean_profile summaries in
  let mean_ops =
    List.fold_left (fun acc s -> acc +. float_of_int s.Metrics.s_operations) 0.
      summaries
    /. float_of_int (List.length summaries)
  in
  ( {
      ops = Array.of_list (List.map (fun (i, _, _) -> i) mean);
      violations = Array.of_list (List.map (fun (_, v, _) -> v) mean);
      evaluations = Array.of_list (List.map (fun (_, _, e) -> e) mean);
    },
    mean_ops )

let totals s =
  ( Array.fold_left ( +. ) 0. s.violations,
    Array.fold_left ( +. ) 0. s.evaluations )

let last_violation_op s =
  let last = ref 0 in
  Array.iteri (fun i v -> if v > 0.01 then last := s.ops.(i)) s.violations;
  !last

let run ?(seeds = 20) ?(jobs = 1) () =
  let conventional, conv_mean_ops =
    profile_series ~jobs Dpm.Conventional seeds
  in
  let adpm, adpm_mean_ops = profile_series ~jobs Dpm.Adpm seeds in
  let conv_total_viol, conv_total_evals = totals conventional in
  let adpm_total_viol, adpm_total_evals = totals adpm in
  {
    conventional;
    adpm;
    conv_total_viol;
    adpm_total_viol;
    conv_total_evals;
    adpm_total_evals;
    conv_last_violation_op = last_violation_op conventional;
    adpm_last_violation_op = last_violation_op adpm;
    conv_mean_ops;
    adpm_mean_ops;
  }

let to_points s values =
  Array.to_list (Array.mapi (fun i v -> (float_of_int s.ops.(i), v)) values)

let render r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "=== Figure 7: per-operation profiles, simplified case ===\n\n";
  add "%s\n"
    (Ascii_chart.line_chart ~title:"Fig. 7(a) violations found per operation"
       ~x_label:"operation number" ~y_label:"violations found"
       [
         { Ascii_chart.label = "conventional";
           points = to_points r.conventional r.conventional.violations };
         { Ascii_chart.label = "ADPM"; points = to_points r.adpm r.adpm.violations };
       ]);
  add "%s\n"
    (Ascii_chart.line_chart
       ~title:"Fig. 7(b) constraint evaluations per operation"
       ~x_label:"operation number" ~y_label:"evaluations"
       [
         { Ascii_chart.label = "conventional";
           points = to_points r.conventional r.conventional.evaluations };
         { Ascii_chart.label = "ADPM"; points = to_points r.adpm r.adpm.evaluations };
       ]);
  add "paper shape: ADPM finds fewer violations, stops finding them earlier,\n";
  add "and needs fewer operations; ADPM pays more evaluations per operation\n";
  add "but the total penalty is smaller than the per-operation penalty.\n\n";
  add "measured: violations total conv=%.1f adpm=%.1f; last violation at op conv=%d adpm=%d\n"
    r.conv_total_viol r.adpm_total_viol r.conv_last_violation_op
    r.adpm_last_violation_op;
  add "          mean run length conv=%.1f adpm=%.1f ops; evaluations total conv=%.0f adpm=%.0f\n"
    r.conv_mean_ops r.adpm_mean_ops r.conv_total_evals r.adpm_total_evals;
  Buffer.contents buf
