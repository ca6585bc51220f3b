open Adpm_teamsim

let source =
  {|
// The MEMS-based wireless receiver front-end (Section 3.2) in DDDL:
// 35 properties, 30 mostly non-linear constraints. Analog: differential
// pair width (um), load inductor (uH), bias current (mA), load
// resistance (kOhm), mixer transconductance (mS) and bias (mA). MEMS
// filter: clamped-clamped beam dimensions, electrode gap, resonator Q,
// drive voltage; centre frequency ~ Wb sqrt(Tb) / Lb^2.
scenario receiver {
  // analog free variables
  property "diff-pair-w"   : real [2.5, 10];
  property "freq-ind"      : real [0.05, 0.5];
  property "bias-current"  : real [1, 10];
  property "load-res"      : real [0.1, 2];
  property "mixer-gm"      : real [1, 20];
  property "mixer-bias"    : real [0.5, 5];
  // analog performance parameters
  property "lna-gain"      : real [1, 300];
  property "lna-power"     : real [10, 400];
  property "lna-zin"       : real [10, 200];
  property "mixer-gain"    : real [0.5, 40];
  property "mixer-power"   : real [1, 100];
  // filter free variables
  property "beam-length"   : real [5, 50];
  property "beam-width"    : real [0.5, 5];
  property "beam-thickness": real [0.5, 4];
  property gap             : real [0.1, 2];
  property "resonator-q"   : real [100, 10000];
  property "drive-v"       : real [1, 50];
  // filter performance parameters
  property "center-freq"   : real [10, 500];
  property "filter-bw"     : real [0.05, 5];
  property "insertion-att" : real [1, 10];
  property "filter-power"  : real [0.01, 10];
  property "freq-precision": real [0.05, 5];
  // requirements
  property "req-gain"      : real [10, 4000];
  property "req-power"     : real [50, 400];
  property "req-zin-min"   : real [10, 100];
  property "req-zin-max"   : real [50, 200];
  property "req-bw-min"    : real [0.1, 2];
  property "req-bw-max"    : real [0.5, 3];
  property "req-freq"      : real [50, 200];
  property "req-freq-tol"  : real [1, 20];
  property "req-prec-max"  : real [0.5, 5];
  property "req-att-max"   : real [1.1, 5];
  property "req-ind-max"   : real [0.1, 1];
  property "req-drive-max" : real [5, 50];
  property "req-mixer-gain": real [1, 20];

  // analog model bands (non-linear)
  constraint "LNAGain-lo" :
    "lna-gain" >= 0.85 * (10 * sqrt("bias-current" * "diff-pair-w") * "load-res");
  constraint "LNAGain-hi" :
    "lna-gain" <= 1.15 * (10 * sqrt("bias-current" * "diff-pair-w") * "load-res");
  constraint "LNAPower-lo" :
    "lna-power" >= 0.9 * (30 * "bias-current" + 5 * "diff-pair-w");
  constraint "LNAZin-lo" :
    "lna-zin" >= 0.9 * (500 * "freq-ind" / sqrt("diff-pair-w"));
  constraint "LNAZin-hi" :
    "lna-zin" <= 1.1 * (500 * "freq-ind" / sqrt("diff-pair-w"));
  constraint "MixerGain-lo" : "mixer-gain" >= 1.275 * "mixer-gm";
  constraint "MixerGain-hi" : "mixer-gain" <= 1.725 * "mixer-gm";
  constraint "MixerPower-lo" : "mixer-power" >= 10.8 * "mixer-bias";

  // filter model bands (non-linear)
  constraint "CenterFreq-lo" :
    "center-freq" >= 0.92 * (5650 * "beam-width" * sqrt("beam-thickness") / "beam-length"^2);
  constraint "CenterFreq-hi" :
    "center-freq" <= 1.08 * (5650 * "beam-width" * sqrt("beam-thickness") / "beam-length"^2);
  constraint "FilterBW-lo" :
    "filter-bw" >= 0.85 * (20 * "center-freq" / "resonator-q");
  constraint "FilterBW-hi" :
    "filter-bw" <= 1.15 * (20 * "center-freq" / "resonator-q");
  constraint "FilterLoss-lo" :
    "insertion-att" >= 0.85 * (1 + 300 * gap^2 / ("beam-width" * "beam-thickness") / sqrt("resonator-q"));
  constraint "FilterLoss-hi" :
    "insertion-att" <= 1.15 * (1 + 300 * gap^2 / ("beam-width" * "beam-thickness") / sqrt("resonator-q"));
  constraint "FilterPower-lo" :
    "filter-power" >= 0.8 * (0.02 * "drive-v"^2 / gap);
  constraint "FreqPrec-lo" :
    "freq-precision" >= 0.8 * (50 * gap / "beam-length");
  constraint "FreqPrec-hi" :
    "freq-precision" <= 1.2 * (50 * gap / "beam-length");

  // system constraints
  constraint TotalGain : "lna-gain" * "mixer-gain" >= "req-gain" * "insertion-att";
  constraint TotalPower :
    "lna-power" + "mixer-power" + "filter-power" <= "req-power";
  constraint "ZinWindow-lo" : "lna-zin" >= "req-zin-min";
  constraint "ZinWindow-hi" : "lna-zin" <= "req-zin-max";
  constraint "ChannelFreq-lo" : "center-freq" >= "req-freq" - "req-freq-tol";
  constraint "ChannelFreq-hi" : "center-freq" <= "req-freq" + "req-freq-tol";
  constraint "ChannelBW-lo" : "filter-bw" >= "req-bw-min";
  constraint "ChannelBW-hi" : "filter-bw" <= "req-bw-max";
  constraint FreqPrecision : "freq-precision" <= "req-prec-max";
  constraint InsertionLoss : "insertion-att" <= "req-att-max";
  constraint MaxFreqInd : "freq-ind" <= "req-ind-max";
  constraint MaxDrive : "drive-v" <= "req-drive-max";
  constraint MixerGainReq : "mixer-gain" >= "req-mixer-gain";

  // the synthesis tools' models (band centres)
  model "lna-gain"       = 10 * sqrt("bias-current" * "diff-pair-w") * "load-res";
  model "lna-power"      = 30 * "bias-current" + 5 * "diff-pair-w";
  model "lna-zin"        = 500 * "freq-ind" / sqrt("diff-pair-w");
  model "mixer-gain"     = 1.5 * "mixer-gm";
  model "mixer-power"    = 12 * "mixer-bias";
  model "center-freq"    = 5650 * "beam-width" * sqrt("beam-thickness") / "beam-length"^2;
  model "filter-bw"      = 20 * "center-freq" / "resonator-q";
  model "insertion-att"  = 1 + 300 * gap^2 / ("beam-width" * "beam-thickness") / sqrt("resonator-q");
  model "filter-power"   = 0.02 * "drive-v"^2 / gap;
  model "freq-precision" = 50 * gap / "beam-length";

  requirement "req-gain" = 30;
  requirement "req-power" = 190;
  requirement "req-zin-min" = 45;
  requirement "req-zin-max" = 75;
  requirement "req-bw-min" = 0.85;
  requirement "req-bw-max" = 1.15;
  requirement "req-freq" = 100;
  requirement "req-freq-tol" = 6;
  requirement "req-prec-max" = 2.2;
  requirement "req-att-max" = 1.7;
  requirement "req-ind-max" = 0.5;
  requirement "req-drive-max" = 25;
  requirement "req-mixer-gain" = 5;

  object "LNA+Mixer" {
    properties: "diff-pair-w", "freq-ind", "bias-current", "load-res",
      "mixer-gm", "mixer-bias", "lna-gain", "lna-power", "lna-zin",
      "mixer-gain", "mixer-power";
  }
  object "MEMS-Filter" {
    properties: "beam-length", "beam-width", "beam-thickness", gap,
      "resonator-q", "drive-v", "center-freq", "filter-bw", "insertion-att",
      "filter-power", "freq-precision";
  }

  problem "receiver-front-end" owner leader {
    inputs: "req-gain", "req-power", "req-zin-min", "req-zin-max",
      "req-bw-min", "req-bw-max", "req-freq", "req-freq-tol", "req-prec-max",
      "req-att-max", "req-ind-max", "req-drive-max", "req-mixer-gain";
    constraints: TotalGain, TotalPower, "ZinWindow-lo", "ZinWindow-hi",
      "ChannelFreq-lo", "ChannelFreq-hi", "ChannelBW-lo", "ChannelBW-hi",
      FreqPrecision, InsertionLoss, MaxFreqInd, MaxDrive, MixerGainReq;
    subproblem analog owner circuit {
      inputs: "req-gain", "req-power", "req-zin-min", "req-zin-max";
      outputs: "diff-pair-w", "freq-ind", "bias-current", "load-res",
        "mixer-gm", "mixer-bias", "lna-gain", "lna-power", "lna-zin",
        "mixer-gain", "mixer-power";
      constraints: "LNAGain-lo", "LNAGain-hi", "LNAPower-lo", "LNAZin-lo",
        "LNAZin-hi", "MixerGain-lo", "MixerGain-hi", "MixerPower-lo";
      object: "LNA+Mixer";
    }
    subproblem "mems-filter" owner device {
      inputs: "req-freq", "req-freq-tol", "req-bw-min", "req-bw-max";
      outputs: "beam-length", "beam-width", "beam-thickness", gap,
        "resonator-q", "drive-v", "center-freq", "filter-bw",
        "insertion-att", "filter-power", "freq-precision";
      constraints: "CenterFreq-lo", "CenterFreq-hi", "FilterBW-lo",
        "FilterBW-hi", "FilterLoss-lo", "FilterLoss-hi", "FilterPower-lo",
        "FreqPrec-lo", "FreqPrec-hi";
      object: "MEMS-Filter";
    }
  }
}
|}

let decl = Adpm_dddl.Parser.parse source

let scenario =
  {
    (Adpm_dddl.Elaborate.scenario decl) with
    Scenario.sc_description =
      "MEMS wireless receiver front-end: 35 properties, 30 mostly non-linear constraints";
  }

let with_req_gain req_gain =
  Adpm_dddl.Elaborate.scenario
    (Adpm_dddl.Elaborate.with_requirements [ ("req-gain", req_gain) ] decl)

let gain_sweep = [ 30.; 500.; 1000.; 1500.; 2000.; 3000. ]
