(* The Section 2.4 walkthrough, step by step, with the Minerva III browser
   views rendered after each operation — reproduces Figs. 2, 3 and 4.

     dune exec examples/lna_walkthrough.exe *)

open Adpm_csp
open Adpm_core
open Adpm_scenarios

let step n text = Printf.printf "\n--- step %d: %s ---\n\n" n text

let () =
  let dpm = Adpm_dddl.Elaborate.build Lna.adjustable_requirements ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  let top = 0 and analog = 1 and filter = 2 in

  print_endline "Team-based design of a MEMS-based wireless receiver front-end";
  print_endline "(Section 2.4): a leader, a device engineer, and an analog";
  print_endline "circuit designer work concurrently under gain, power and";
  print_endline "impedance constraints.";

  step 1 "the device engineer adjusts the beam length to 13 um";
  let r =
    Dpm.apply dpm
      (Operator.synthesis ~designer:"device" ~problem:filter
         [ (Lna.beam_length, Value.Num 13.) ])
  in
  Printf.printf "(operation triggered %d constraint evaluations)\n\n"
    r.Dpm.r_evaluations;
  print_endline "Fig. 2 - the circuit designer's object browser now shows the";
  print_endline "value sets not found to be infeasible:";
  print_newline ();
  print_endline (Browser.object_browser dpm "LNA+Mixer");
  print_endline
    "The Freq-ind window (0.174255, 0.5) is small compared with the";
  print_endline
    "Diff-pair-W window (2.5, 3.698) - so the inductor design comes first.";

  step 2 "Fig. 3 - constraints in which each property appears";
  print_endline (Browser.property_browser dpm ~props:[ Lna.diff_pair_w; Lna.freq_ind ]);
  Printf.printf "beta(Diff-pair-W) = %d: power consumption, input impedance, gain\n"
    (Network.beta net Lna.diff_pair_w);

  step 3 "the designer sets the load inductor to 0.2 uH (no conflict)";
  let r =
    Dpm.apply dpm
      (Operator.synthesis ~designer:"circuit" ~problem:analog
         [ (Lna.freq_ind, Value.Num 0.2) ])
  in
  Printf.printf "newly violated: %d\n" (List.length r.Dpm.r_newly_violated);

  step 4 "the pair is sized at 2.5 um - smallest feasible, lowest power";
  let r =
    Dpm.apply dpm
      (Operator.synthesis ~designer:"circuit" ~problem:analog
         [ (Lna.diff_pair_w, Value.Num 2.5) ])
  in
  List.iter
    (fun cid ->
      Printf.printf "VIOLATION: %s\n"
        (Network.find_constraint net cid).Constr.name)
    r.Dpm.r_newly_violated;

  step 5 "the leader tightens the input impedance requirement to 40 Ohm";
  let r =
    Dpm.apply dpm
      (Operator.synthesis ~designer:"leader" ~problem:top
         [ (Lna.min_zin, Value.Num 40.) ])
  in
  List.iter
    (fun cid ->
      Printf.printf "VIOLATION: %s\n"
        (Network.find_constraint net cid).Constr.name)
    r.Dpm.r_newly_violated;

  step 6 "Fig. 4 - the conflict-resolution view";
  print_endline
    (Browser.conflict_browser dpm
       ~props:[ Lna.diff_pair_w; Lna.freq_ind; Lna.min_zin ]);
  Printf.printf
    "Diff-pair-W is connected to %d violations - the repair target.\n"
    (Network.alpha net Lna.diff_pair_w);

  step 7 "larger transistors improve gain and matching: W := 3.5 um";
  let r =
    Dpm.apply dpm
      (Operator.synthesis ~designer:"circuit" ~problem:analog
         ~motivated_by:(Dpm.known_violations dpm)
         [ (Lna.diff_pair_w, Value.Num 3.5) ])
  in
  List.iter
    (fun cid ->
      Printf.printf "resolved: %s\n" (Network.find_constraint net cid).Constr.name)
    r.Dpm.r_resolved;
  Printf.printf "remaining violations: %d\n"
    (List.length (Dpm.known_violations dpm));
  print_endline "\nBoth violations fixed with a single iteration - as published."
