open Adpm_teamsim

let source =
  {|
// The simplified two-subsystem case of Fig. 7, in DDDL.
// Two designers (alice, bob) develop subsystems A and B concurrently;
// the leader owns the system problem with the cross-subsystem budgets.
scenario simple {
  property xa1 : real [0, 10];
  property xa2 : real [0, 10];
  property pa  : real [0, 20];
  property ga  : real [0, 25];
  property xb1 : real [0, 10];
  property xb2 : real [0, 10];
  property pb  : real [0, 20];
  property gb  : real [0, 15];
  property p_max : real [5, 40];
  property g_min : real [1, 30];

  /* model bands: the synthesis tool's accuracy tolerance */
  constraint "A-power-lo" : pa >= 4.0 + 0.8*xa1 + 0.6*xa2 - 0.5;
  constraint "A-power-hi" : pa <= 4.0 + 0.8*xa1 + 0.6*xa2 + 0.5;
  constraint "A-gain-lo"  : ga >= 1.5*xa1 + 0.5*xa2 - 0.4;
  constraint "A-gain-hi"  : ga <= 1.5*xa1 + 0.5*xa2 + 0.4;
  constraint "B-power-lo" : pb >= 2.0 + 0.5*xb1 + 0.7*xb2 - 0.5;
  constraint "B-power-hi" : pb <= 2.0 + 0.5*xb1 + 0.7*xb2 + 0.5;
  constraint "B-gain-lo"  : gb >= xb1 + 0.3*xb2 - 0.3;
  constraint "B-gain-hi"  : gb <= xb1 + 0.3*xb2 + 0.3;

  // cross-subsystem budgets
  constraint TotalPower : pa + pb <= p_max;
  constraint TotalGain : ga + gb >= g_min;
  constraint GainBalance : ga <= 2.5*gb + 5.0;

  model pa = 4.0 + 0.8*xa1 + 0.6*xa2;
  model ga = 1.5*xa1 + 0.5*xa2;
  model pb = 2.0 + 0.5*xb1 + 0.7*xb2;
  model gb = xb1 + 0.3*xb2;

  requirement p_max = 19.0;
  requirement g_min = 14.5;

  object SubsystemA { properties: xa1, xa2, pa, ga; }
  object SubsystemB { properties: xb1, xb2, pb, gb; }

  problem system owner leader {
    inputs: p_max, g_min;
    constraints: TotalPower, TotalGain, GainBalance;
    subproblem "subsystem-A" owner alice {
      inputs: p_max, g_min;
      outputs: xa1, xa2, pa, ga;
      constraints: "A-power-lo", "A-power-hi", "A-gain-lo", "A-gain-hi";
      object: SubsystemA;
    }
    subproblem "subsystem-B" owner bob {
      inputs: p_max, g_min;
      outputs: xb1, xb2, pb, gb;
      constraints: "B-power-lo", "B-power-hi", "B-gain-lo", "B-gain-hi";
      object: SubsystemB;
    }
  }
}
|}

let decl = Adpm_dddl.Parser.parse source

let scenario =
  {
    (Adpm_dddl.Elaborate.scenario decl) with
    Scenario.sc_description = "two-subsystem simplified case (Fig. 7)";
  }
