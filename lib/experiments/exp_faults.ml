open Adpm_util
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios
module Fault = Adpm_fault.Fault

type point = {
  p_drop : float;
  p_conv : Report.aggregate;
  p_adpm : Report.aggregate;
}

type crash_point = {
  c_plan : string;
  c_conv : Report.aggregate;
  c_adpm : Report.aggregate;
}

type result = {
  scenario : string;
  seeds : int;
  points : point list;
  crash : crash_point;
}

type verdicts = {
  completion_by_drop : (float * float * float) list;
      (** (drop rate, conventional completion, ADPM completion) *)
  adpm_degrades_slower : bool;
  crash_completion : float * float;
}

let drops = [ 0.; 0.1; 0.25; 0.5 ]

let cell ~jobs mode faults seeds =
  let cfg = { (Config.default ~mode ~seed:0) with Config.faults } in
  Report.sweep ~jobs cfg Sensor.scenario ~seeds

(* Knock out the scenario's first designer early enough that even a fast
   ADPM run (sensor completes in ~6 ticks) is still in flight when the
   crash lands, with a recovery window long enough to hurt. *)
let crash_plan () =
  match Compiled.designers (Scenario.compiled Sensor.scenario ~mode:Dpm.Adpm) with
  | [] -> invalid_arg "Exp_faults: scenario has no designers"
  | first :: _ ->
    {
      Fault.none with
      Fault.p_crashes =
        [ { Fault.cr_designer = first; cr_at = 3; cr_recover = 12 } ];
    }

let run ?(seeds = 30) ?(jobs = 1) () =
  let plan = crash_plan () in
  {
    scenario = Sensor.scenario.Scenario.sc_name;
    seeds;
    points =
      List.map
        (fun rate ->
          let plan = { Fault.none with Fault.p_drop = rate } in
          {
            p_drop = rate;
            p_conv = cell ~jobs Dpm.Conventional plan seeds;
            p_adpm = cell ~jobs Dpm.Adpm plan seeds;
          })
        drops;
    crash =
      {
        c_plan = Fault.crashes_to_string plan.Fault.p_crashes;
        c_conv = cell ~jobs Dpm.Conventional plan seeds;
        c_adpm = cell ~jobs Dpm.Adpm plan seeds;
      };
  }

let verdicts r =
  let completion = Report.completion in
  let rows =
    List.map (fun p -> (p.p_drop, completion p.p_conv, completion p.p_adpm))
      r.points
  in
  let _, conv0, adpm0 = List.hd rows in
  let _, convN, adpmN = List.nth rows (List.length rows - 1) in
  {
    completion_by_drop = rows;
    (* ADPM loses no more completion than the conventional process does
       between the cleanest and lossiest cells. *)
    adpm_degrades_slower = adpm0 -. adpmN <= conv0 -. convN;
    crash_completion = (completion r.crash.c_conv, completion r.crash.c_adpm);
  }

let render r =
  let v = verdicts r in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "=== Fault-injection sweep: %s (%d seeds/cell) ===\n\n" r.scenario r.seeds;
  let table =
    Table.create ~title:"Completion and mean operations by notification drop rate"
      [ "Drop"; "Conv done"; "ADPM done"; "Conv ops"; "ADPM ops" ]
  in
  Table.set_align table
    [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ];
  List.iter
    (fun p ->
      Table.add_row table
        [
          Printf.sprintf "%.2f" p.p_drop;
          Printf.sprintf "%.0f%%" (100. *. Report.completion p.p_conv);
          Printf.sprintf "%.0f%%" (100. *. Report.completion p.p_adpm);
          Printf.sprintf "%.1f" (Stats_acc.mean p.p_conv.Report.a_ops);
          Printf.sprintf "%.1f" (Stats_acc.mean p.p_adpm.Report.a_ops);
        ])
    r.points;
  Buffer.add_string buf (Table.render table);
  Buffer.add_char buf '\n';
  add "%s\n"
    (Ascii_chart.bar_chart ~title:"ADPM completion rate by drop rate"
       (List.map
          (fun (rate, _, adpm) -> (Printf.sprintf "drop %.2f" rate, adpm))
          v.completion_by_drop));
  add "Designer-crash schedule %s:\n" r.crash.c_plan;
  add "  conventional completion: %.0f%%   ADPM completion: %.0f%%\n"
    (100. *. fst v.crash_completion)
    (100. *. snd v.crash_completion);
  add "ADPM degrades no faster than conventional: %b\n" v.adpm_degrades_slower;
  Buffer.contents buf
