open Adpm_interval
open Adpm_csp
open Adpm_core
open Adpm_scenarios

type result = {
  freq_ind_window : float * float;
  diff_pair_window : float * float;
  beta_diff_pair : int;
  alpha_after_conflicts : int;
  violations_after_gain_choice : string list;
  violations_after_tightening : string list;
  resolved_by_resize : string list;
  remaining_violations : int;
  fig2_text : string;
  fig3_text : string;
  fig4_text : string;
}

let window net prop =
  match Domain.hull (Network.feasible net prop) with
  | Some iv -> (Interval.lo iv, Interval.hi iv)
  | None -> (nan, nan)

let constraint_names net cids =
  List.map (fun cid -> (Network.find_constraint net cid).Constr.name) cids

let run () =
  let dpm = Adpm_dddl.Elaborate.build Lna.adjustable_requirements ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  let top = 0 and analog = 1 and filter = 2 in
  (* the device engineer adjusts the beam length to 13 um *)
  ignore
    (Dpm.apply dpm
       (Operator.synthesis ~designer:"device" ~problem:filter
          [ (Lna.beam_length, Value.Num 13.) ]));
  let freq_ind_window = window net Lna.freq_ind in
  let diff_pair_window = window net Lna.diff_pair_w in
  let fig2_text = Browser.object_browser dpm "LNA+Mixer" in
  let fig3_text =
    Browser.property_browser dpm ~props:[ Lna.diff_pair_w; Lna.freq_ind ]
  in
  let beta_diff_pair = Network.beta net Lna.diff_pair_w in
  (* the circuit designer chooses the inductor, then the smallest
     potentially feasible pair width (2.5 um reduces power consumption) *)
  ignore
    (Dpm.apply dpm
       (Operator.synthesis ~designer:"circuit" ~problem:analog
          [ (Lna.freq_ind, Value.Num 0.2) ]));
  let r_gain =
    Dpm.apply dpm
      (Operator.synthesis ~designer:"circuit" ~problem:analog
         [ (Lna.diff_pair_w, Value.Num 2.5) ])
  in
  (* the team leader tightens the input impedance requirement to 40 Ohm *)
  let r_zin =
    Dpm.apply dpm
      (Operator.synthesis ~designer:"leader" ~problem:top
         [ (Lna.min_zin, Value.Num 40.) ])
  in
  let alpha_after_conflicts = Network.alpha net Lna.diff_pair_w in
  let fig4_text =
    Browser.conflict_browser dpm
      ~props:[ Lna.diff_pair_w; Lna.freq_ind; Lna.min_zin ]
  in
  (* larger transistors improve gain and impedance matching: one re-sizing *)
  let r_fix =
    Dpm.apply dpm
      (Operator.synthesis ~designer:"circuit" ~problem:analog
         ~motivated_by:(Dpm.known_violations dpm)
         [ (Lna.diff_pair_w, Value.Num 3.5) ])
  in
  {
    freq_ind_window;
    diff_pair_window;
    beta_diff_pair;
    alpha_after_conflicts;
    violations_after_gain_choice = constraint_names net r_gain.Dpm.r_newly_violated;
    violations_after_tightening = constraint_names net r_zin.Dpm.r_newly_violated;
    resolved_by_resize = constraint_names net r_fix.Dpm.r_resolved;
    remaining_violations = List.length (Dpm.known_violations dpm);
    fig2_text;
    fig3_text;
    fig4_text;
  }

let render r =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "=== Figures 2-4: Section 2.4 walkthrough (LNA + MEMS filter) ===\n\n";
  add "Fig. 2 — object browser after beam length := 13 um:\n%s\n" r.fig2_text;
  add "  paper:    Freq-ind {0.174255, 0.500000}   Diff-pair-W {2.500000, 3.698225}\n";
  add "  measured: Freq-ind {%.6f, %.6f}   Diff-pair-W {%.6f, %.6f}\n\n"
    (fst r.freq_ind_window) (snd r.freq_ind_window)
    (fst r.diff_pair_window) (snd r.diff_pair_window);
  add "Fig. 3 — constraint/property browser:\n%s\n" r.fig3_text;
  add "  paper: beta(Diff-pair-W) = 3; measured: %d\n\n" r.beta_diff_pair;
  add "Violations after W := 2.5 um: %s (paper: gain requirement)\n"
    (String.concat ", " r.violations_after_gain_choice);
  add "Violations after Zin spec := 40 Ohm: %s (paper: impedance)\n\n"
    (String.concat ", " r.violations_after_tightening);
  add "Fig. 4 — conflict resolution view:\n%s\n" r.fig4_text;
  add "  paper: alpha(Diff-pair-W) = 2; measured: %d\n\n" r.alpha_after_conflicts;
  add "Re-sizing W := 3.5 um resolved: %s; remaining violations: %d\n"
    (String.concat ", " r.resolved_by_resize)
    r.remaining_violations;
  add "  paper: both violations fixed with a single iteration\n";
  Buffer.contents buf
