open Adpm_teamsim

let diff_pair_w = "Diff-pair-W"
let freq_ind = "Freq-ind"
let beam_length = "Beam-length"
let min_zin = "Min-LNA-Zin"

let source =
  {|
// The Section 2.4 walkthrough case in DDDL: LNA + mixer circuitry and a
// MEMS filtering device. Constants calibrated so the Fig. 2 feasible
// windows fall out of propagation.
scenario lna {
  property "Diff-pair-W" : real [2.5, 10] levels "Transistor,Geometry";
  property "Freq-ind"    : real [0.05, 0.5] levels "Transistor,Geometry";
  property "Beam-length" : real [5, 50];
  property "Min-gain"    : real [10, 100];
  property "Max-power"   : real [50, 400];
  property "Min-LNA-Zin" : real [10, 100];

  constraint "LNAPower-C7" :
    40 + 38.5522 * "Diff-pair-W" + 100 * "Freq-ind" <= "Max-power";
  constraint "LNAGain-C10" :
    30 * "Diff-pair-W" * sqrt("Freq-ind") >= "Min-gain";
  constraint "LNA-Zin-C9" :
    60 * "Diff-pair-W" * "Freq-ind" >= "Min-LNA-Zin";
  constraint "FilterMatch-C4" :
    "Freq-ind" >= 0.0134042 * "Beam-length";

  requirement "Min-gain" = 40;
  requirement "Max-power" = 200;
  requirement "Min-LNA-Zin" = 40;

  object "LNA+Mixer" { properties: "Diff-pair-W", "Freq-ind"; }
  object "MEMS-Filter" { properties: "Beam-length"; }

  problem "receiver-front-end" owner leader {
    inputs: "Min-gain", "Max-power", "Min-LNA-Zin";
    constraints: "FilterMatch-C4";
    subproblem analog owner circuit {
      inputs: "Min-gain", "Max-power", "Min-LNA-Zin";
      outputs: "Diff-pair-W", "Freq-ind";
      constraints: "LNAPower-C7", "LNAGain-C10", "LNA-Zin-C9";
      object: "LNA+Mixer";
    }
    subproblem "mems-filter" owner device {
      outputs: "Beam-length";
      object: "MEMS-Filter";
    }
  }
}
|}

let decl = Adpm_dddl.Parser.parse source

let scenario =
  {
    (Adpm_dddl.Elaborate.scenario decl) with
    Scenario.sc_description = "Section 2.4 LNA + MEMS filter walkthrough case";
  }

(* The walkthrough leader adjusts requirements through operations, so they
   are outputs of the top problem rather than fixed inputs, and the
   impedance floor starts loose so the leader can tighten it to 40. *)
let adjustable_requirements =
  let top = decl.Adpm_dddl.Ast.sd_problem in
  Adpm_dddl.Elaborate.with_requirements [ (min_zin, 25.) ]
    {
      decl with
      sd_problem =
        { top with prd_inputs = []; prd_outputs = top.prd_inputs @ top.prd_outputs };
    }
