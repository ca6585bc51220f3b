open Adpm_util
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

type point = {
  p_latency : int;
  p_conv : Report.aggregate;
  p_adpm : Report.aggregate;
}

type result = { scenario : string; seeds : int; points : point list }

type verdicts = {
  ops_ratio_by_latency : (int * float) list;
  ratio_at_zero : float;
  ratio_at_max : float;
  advantage_grows : bool;
}

let latencies = [ 0; 1; 2; 4; 8 ]

let cell ~jobs mode latency seeds =
  let cfg = { (Config.default ~mode ~seed:0) with Config.latency } in
  Report.sweep ~jobs cfg Sensor.scenario ~seeds

let run ?(seeds = 30) ?(jobs = 1) () =
  {
    scenario = Sensor.scenario.Scenario.sc_name;
    seeds;
    points =
      List.map
        (fun latency ->
          {
            p_latency = latency;
            p_conv = cell ~jobs Dpm.Conventional latency seeds;
            p_adpm = cell ~jobs Dpm.Adpm latency seeds;
          })
        latencies;
  }

let ops_ratio p =
  Report.safe_div (Stats_acc.mean p.p_conv.Report.a_ops)
    (Stats_acc.mean p.p_adpm.Report.a_ops)

let verdicts r =
  let ratios = List.map (fun p -> (p.p_latency, ops_ratio p)) r.points in
  let first = List.hd ratios and last = List.nth ratios (List.length ratios - 1) in
  {
    ops_ratio_by_latency = ratios;
    ratio_at_zero = snd first;
    ratio_at_max = snd last;
    advantage_grows = snd last >= snd first;
  }

let render r =
  let v = verdicts r in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "=== Notification-latency sweep: %s (%d seeds/cell) ===\n\n" r.scenario
    r.seeds;
  let table =
    Table.create ~title:"Mean design operations by notification latency"
      [
        "Latency";
        "Conv ops";
        "ADPM ops";
        "Conv/ADPM";
        "Conv done";
        "ADPM done";
      ]
  in
  Table.set_align table
    [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ];
  List.iter
    (fun p ->
      Table.add_row table
        [
          string_of_int p.p_latency;
          Printf.sprintf "%.1f" (Stats_acc.mean p.p_conv.Report.a_ops);
          Printf.sprintf "%.1f" (Stats_acc.mean p.p_adpm.Report.a_ops);
          Printf.sprintf "%.2f" (ops_ratio p);
          Printf.sprintf "%.0f%%" (100. *. Report.completion p.p_conv);
          Printf.sprintf "%.0f%%" (100. *. Report.completion p.p_adpm);
        ])
    r.points;
  Buffer.add_string buf (Table.render table);
  Buffer.add_char buf '\n';
  add "%s\n"
    (Ascii_chart.bar_chart
       ~title:"Conventional-to-ADPM operation ratio by latency"
       (List.map
          (fun (latency, ratio) ->
            (Printf.sprintf "latency %d" latency, ratio))
          v.ops_ratio_by_latency));
  add "ADPM advantage (conv ops / ADPM ops) at latency 0: %.2f\n" v.ratio_at_zero;
  add "ADPM advantage at the largest latency:             %.2f\n" v.ratio_at_max;
  add "advantage grows (or holds) as notification lags:   %b\n" v.advantage_grows;
  Buffer.contents buf
