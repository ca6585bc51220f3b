open Adpm_util
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

type point = {
  req_gain : float;
  conv_mean_ops : float;
  conv_sd_ops : float;
  adpm_mean_ops : float;
  adpm_sd_ops : float;
}

type result = { points : point list; conv_spread : float; adpm_spread : float }

let measure ~jobs mode req_gain seeds =
  let a =
    Report.sweep ~jobs (Config.default ~mode ~seed:0)
      (Receiver.with_req_gain req_gain) ~seeds
  in
  (Stats_acc.mean a.Report.a_ops, Stats_acc.stddev a.Report.a_ops)

let run ?(seeds = 10) ?(sweep = Receiver.gain_sweep) ?(jobs = 1) () =
  let points =
    List.map
      (fun req_gain ->
        let conv_mean_ops, conv_sd_ops =
          measure ~jobs Dpm.Conventional req_gain seeds
        in
        let adpm_mean_ops, adpm_sd_ops =
          measure ~jobs Dpm.Adpm req_gain seeds
        in
        { req_gain; conv_mean_ops; conv_sd_ops; adpm_mean_ops; adpm_sd_ops })
      sweep
  in
  let spread f =
    let values = List.map f points in
    List.fold_left max neg_infinity values -. List.fold_left min infinity values
  in
  {
    points;
    conv_spread = spread (fun p -> p.conv_mean_ops);
    adpm_spread = spread (fun p -> p.adpm_mean_ops);
  }

let render r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "=== Figure 10: operations vs gain-requirement tightness (receiver) ===\n\n";
  let table =
    Table.create
      [ "req-gain"; "conv ops (mean)"; "conv sd"; "ADPM ops (mean)"; "ADPM sd" ]
  in
  Table.set_align table
    [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ];
  List.iter
    (fun p ->
      Table.add_row table
        [
          Printf.sprintf "%.0f" p.req_gain;
          Printf.sprintf "%.1f" p.conv_mean_ops;
          Printf.sprintf "%.1f" p.conv_sd_ops;
          Printf.sprintf "%.1f" p.adpm_mean_ops;
          Printf.sprintf "%.1f" p.adpm_sd_ops;
        ])
    r.points;
  add "%s\n" (Table.render table);
  add "%s\n"
    (Ascii_chart.line_chart ~title:"mean operations vs gain requirement"
       ~x_label:"gain requirement (tightness)" ~y_label:"operations"
       [
         { Ascii_chart.label = "conventional";
           points = List.map (fun p -> (p.req_gain, p.conv_mean_ops)) r.points };
         { Ascii_chart.label = "ADPM";
           points = List.map (fun p -> (p.req_gain, p.adpm_mean_ops)) r.points };
       ]);
  add "paper claim: variation with tightness is larger for the conventional approach\n";
  add "measured spread (max-min of mean ops): conventional=%.1f, ADPM=%.1f\n"
    r.conv_spread r.adpm_spread;
  Buffer.contents buf
