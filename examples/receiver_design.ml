(* The MEMS wireless-receiver case (Section 3.2) — the "harder", mostly
   non-linear scenario — plus a DDDL-defined scenario to show the
   description-language path end to end.

     dune exec examples/receiver_design.exe *)

open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

let () =
  print_endline "MEMS-based wireless receiver front-end: mixed-signal";
  print_endline "circuitry (circuit) and a MEMS channel-selection filter";
  print_endline "(device) designed concurrently under bandwidth, gain,";
  print_endline "impedance, precision and power constraints.";
  print_endline "35 properties, 30 mostly non-linear constraints.";

  (* one run per mode, with the notification traffic ADPM generates *)
  List.iter
    (fun mode ->
      Printf.printf "\n=== %s run (seed 3) ===\n" (Dpm.mode_to_string mode);
      let cfg = Config.default ~mode ~seed:3 in
      let outcome = Engine.run cfg Receiver.scenario in
      print_endline (Metrics.summary_line outcome.Engine.o_summary))
    [ Dpm.Conventional; Dpm.Adpm ];

  (* the tightness sweep of Fig. 10, in miniature *)
  print_endline "\n=== gain-requirement tightness (Fig. 10, 3 seeds/point) ===";
  List.iter
    (fun req_gain ->
      let scenario = Receiver.with_req_gain req_gain in
      let mean mode =
        let cfg = Config.default ~mode ~seed:0 in
        let summaries = Engine.run_many cfg scenario ~seeds:[ 1; 2; 3 ] in
        List.fold_left (fun a s -> a +. float_of_int s.Metrics.s_operations) 0. summaries
        /. 3.
      in
      Printf.printf "  req-gain %5.0f: conventional %6.1f ops | ADPM %5.1f ops\n"
        req_gain (mean Dpm.Conventional) (mean Dpm.Adpm))
    [ 30.; 1000.; 3000. ];

  (* the DDDL path: parse, elaborate, simulate *)
  print_endline "\n=== a DDDL-defined scenario, end to end ===";
  print_endline "(the simplified two-subsystem case, written in the";
  print_endline " scenario-description language; see Simple.source)";
  let scenario = Simple.scenario in
  List.iter
    (fun mode ->
      let cfg = Config.default ~mode ~seed:1 in
      let outcome = Engine.run cfg scenario in
      Printf.printf "  %s\n" (Metrics.summary_line outcome.Engine.o_summary))
    [ Dpm.Conventional; Dpm.Adpm ]
