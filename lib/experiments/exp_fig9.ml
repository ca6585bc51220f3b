open Adpm_util
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

type cell = Report.aggregate

type result = {
  sensor_conv : cell;
  sensor_adpm : cell;
  receiver_conv : cell;
  receiver_adpm : cell;
}

type verdicts = {
  ops_ratio_sensor : float;
  ops_ratio_receiver : float;
  reduction_larger_for_receiver : bool;
  variability_ratio_sensor : float;
  variability_ratio_receiver : float;
  spin_fraction : float;
  eval_penalty_sensor : float;
  eval_penalty_receiver : float;
  penalty_smaller_for_receiver : bool;
  per_op_penalty_sensor : float;
  per_op_penalty_receiver : float;
}

let cell ~jobs scenario mode seeds =
  Report.sweep ~jobs (Config.default ~mode ~seed:0) scenario ~seeds

let run ?(seeds = 60) ?(jobs = 1) () =
  {
    sensor_conv = cell ~jobs Sensor.scenario Dpm.Conventional seeds;
    sensor_adpm = cell ~jobs Sensor.scenario Dpm.Adpm seeds;
    receiver_conv = cell ~jobs Receiver.scenario Dpm.Conventional seeds;
    receiver_adpm = cell ~jobs Receiver.scenario Dpm.Adpm seeds;
  }

let verdicts r =
  let safe_div = Report.safe_div in
  let mean_ops c = Stats_acc.mean c.Report.a_ops in
  let sd_ops c = Stats_acc.stddev c.Report.a_ops in
  let mean_evals c = Stats_acc.mean c.Report.a_evals in
  let mean_per_op c = Stats_acc.mean c.Report.a_evals_per_op in
  let mean_spins c = Stats_acc.mean c.Report.a_spins in
  let ops_ratio_sensor = safe_div (mean_ops r.sensor_conv) (mean_ops r.sensor_adpm) in
  let ops_ratio_receiver =
    safe_div (mean_ops r.receiver_conv) (mean_ops r.receiver_adpm)
  in
  let eval_penalty_sensor =
    safe_div (mean_evals r.sensor_adpm) (mean_evals r.sensor_conv)
  in
  let eval_penalty_receiver =
    safe_div (mean_evals r.receiver_adpm) (mean_evals r.receiver_conv)
  in
  {
    ops_ratio_sensor;
    ops_ratio_receiver;
    reduction_larger_for_receiver = ops_ratio_receiver > ops_ratio_sensor;
    variability_ratio_sensor = safe_div (sd_ops r.sensor_conv) (sd_ops r.sensor_adpm);
    variability_ratio_receiver =
      safe_div (sd_ops r.receiver_conv) (sd_ops r.receiver_adpm);
    spin_fraction =
      safe_div
        (mean_spins r.sensor_adpm +. mean_spins r.receiver_adpm)
        (mean_spins r.sensor_conv +. mean_spins r.receiver_conv);
    eval_penalty_sensor;
    eval_penalty_receiver;
    penalty_smaller_for_receiver = eval_penalty_receiver < eval_penalty_sensor;
    per_op_penalty_sensor =
      safe_div (mean_per_op r.sensor_adpm) (mean_per_op r.sensor_conv);
    per_op_penalty_receiver =
      safe_div (mean_per_op r.receiver_adpm) (mean_per_op r.receiver_conv);
  }

let render r =
  let v = verdicts r in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "=== Figure 9: performance and computational penalty (%d seeds/cell) ===\n\n"
    r.sensor_conv.Report.a_runs;
  add "%s\n"
    (Report.comparison_table ~title:"Fig. 9 raw aggregates"
       [ r.sensor_conv; r.sensor_adpm; r.receiver_conv; r.receiver_adpm ]);
  add "%s\n"
    (Ascii_chart.bar_chart ~title:"Fig. 9(a) mean design operations"
       [
         ("sensor / conventional", Stats_acc.mean r.sensor_conv.Report.a_ops);
         ("sensor / ADPM", Stats_acc.mean r.sensor_adpm.Report.a_ops);
         ("receiver / conventional", Stats_acc.mean r.receiver_conv.Report.a_ops);
         ("receiver / ADPM", Stats_acc.mean r.receiver_adpm.Report.a_ops);
       ]);
  add "%s\n"
    (Ascii_chart.bar_chart ~title:"Fig. 9(b) mean total constraint evaluations"
       [
         ("sensor / conventional", Stats_acc.mean r.sensor_conv.Report.a_evals);
         ("sensor / ADPM", Stats_acc.mean r.sensor_adpm.Report.a_evals);
         ("receiver / conventional", Stats_acc.mean r.receiver_conv.Report.a_evals);
         ("receiver / ADPM", Stats_acc.mean r.receiver_adpm.Report.a_evals);
       ]);
  add "paper claim                                    | paper     | measured\n";
  add "-----------------------------------------------+-----------+---------\n";
  add "conventional ops / ADPM ops (sensor)           | >= 2      | %.1f\n"
    v.ops_ratio_sensor;
  add "conventional ops / ADPM ops (receiver)         | >= 2      | %.1f\n"
    v.ops_ratio_receiver;
  add "reduction more significant for receiver        | yes       | %b\n"
    v.reduction_larger_for_receiver;
  add "conventional sd / ADPM sd (sensor)             | >= 3      | %.1f\n"
    v.variability_ratio_sensor;
  add "conventional sd / ADPM sd (receiver)           | >= 3      | %.1f\n"
    v.variability_ratio_receiver;
  add "ADPM spins / conventional spins                | ~0.07     | %.2f\n"
    v.spin_fraction;
  add "ADPM evals / conventional evals (sensor)       | >> 1      | %.1f\n"
    v.eval_penalty_sensor;
  add "ADPM evals / conventional evals (receiver)     | >> 1      | %.1f\n"
    v.eval_penalty_receiver;
  add "total penalty smaller for harder case          | yes       | %b\n"
    v.penalty_smaller_for_receiver;
  add "per-op penalty (sensor)                        | > total   | %.1f\n"
    v.per_op_penalty_sensor;
  add "per-op penalty (receiver)                      | > total   | %.1f\n"
    v.per_op_penalty_receiver;
  Buffer.contents buf
