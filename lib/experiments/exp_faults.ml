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
  crash : crash_point option;
}

type verdicts = {
  completion_by_drop : (float * float * float) list;
      (** (drop rate, conventional completion, ADPM completion) *)
  adpm_degrades_slower : bool;
  crash_completion : (float * float) option;
}

let default_drops = [ 0.; 0.1; 0.25; 0.5 ]

let cell ~jobs scenario mode faults seeds =
  let cfg = { (Config.default ~mode ~seed:0) with Config.faults } in
  Report.aggregate
    (Engine.run_many ~jobs cfg scenario ~seeds:(List.init seeds (fun i -> i + 1)))

let drop_plan rate = { Fault.none with Fault.p_drop = rate }

(* Knock out the scenario's first designer early enough that even a fast
   ADPM run (sensor completes in ~6 ticks) is still in flight when the
   crash lands, with a recovery window long enough to hurt. *)
let default_crash_plan scenario =
  match Compiled.designers (Scenario.compiled scenario ~mode:Dpm.Adpm) with
  | [] -> invalid_arg "Exp_faults: scenario has no designers"
  | first :: _ ->
    {
      Fault.none with
      Fault.p_crashes =
        [ { Fault.cr_designer = first; cr_at = 3; cr_recover = 12 } ];
    }

let run ?(seeds = 30) ?(jobs = 1) ?(drops = default_drops) ?(with_crash = true)
    ?(scenario = Sensor.scenario) () =
  if drops = [] then invalid_arg "Exp_faults.run: empty drop-rate list";
  let drops = List.sort_uniq compare drops in
  {
    scenario = scenario.Scenario.sc_name;
    seeds;
    points =
      List.map
        (fun rate ->
          let plan = drop_plan rate in
          {
            p_drop = rate;
            p_conv = cell ~jobs scenario Dpm.Conventional plan seeds;
            p_adpm = cell ~jobs scenario Dpm.Adpm plan seeds;
          })
        drops;
    crash =
      (if not with_crash then None
       else
         let plan = default_crash_plan scenario in
         Some
           {
             c_plan = Fault.crashes_to_string plan.Fault.p_crashes;
             c_conv = cell ~jobs scenario Dpm.Conventional plan seeds;
             c_adpm = cell ~jobs scenario Dpm.Adpm plan seeds;
           });
  }

let completion a =
  if a.Report.a_runs = 0 then 0.
  else float_of_int a.Report.a_completed /. float_of_int a.Report.a_runs

let verdicts r =
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
    crash_completion =
      Option.map (fun c -> (completion c.c_conv, completion c.c_adpm)) r.crash;
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
          Printf.sprintf "%.0f%%" (100. *. completion p.p_conv);
          Printf.sprintf "%.0f%%" (100. *. completion p.p_adpm);
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
  (match r.crash with
  | None -> ()
  | Some c ->
    add "Designer-crash schedule %s:\n" c.c_plan;
    add "  conventional completion: %.0f%%   ADPM completion: %.0f%%\n"
      (100. *. completion c.c_conv)
      (100. *. completion c.c_adpm));
  add "ADPM degrades no faster than conventional: %b\n" v.adpm_degrades_slower;
  Buffer.contents buf
