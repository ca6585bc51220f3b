open Adpm_teamsim

let source =
  {|
// The MEMS pressure-sensing system (Section 3.2) in DDDL: 26 properties,
// 21 mostly-linear constraints. Sensor: membrane radius (um), thickness
// (um), electrode gap (um). Interface: amplifier gain, ADC bits (finite),
// bias current (mA). Derived values are tied to linear models by
// one-sided bands wherever the system-level pressure keeps the other
// side honest.
scenario sensor {
  // sensor subsystem
  property radius          : real [100, 1000];
  property thickness       : real [1, 20];
  property gap             : real [0.5, 5];
  property "base-cap"      : real [1, 20];
  property sensitivity     : real [0.1, 4];
  property "max-pressure"  : real [10, 1000];
  property "sensor-noise"  : real [0.1, 5];
  property yield           : real [50, 100];
  // interface subsystem
  property "amp-gain"      : real [1, 100];
  property "adc-bits"      : discrete {8, 10, 12, 14, 16};
  property "bias-current"  : real [0.1, 5];
  property "circuit-noise" : real [0.1, 10];
  property "interface-power" : real [0.5, 50];
  property offset          : real [0.1, 10];
  // top-level requirements
  property "req-resolution" : real [0.5, 10];
  property "req-yield"      : real [50, 95];
  property "req-range"      : real [50, 500];
  property "req-power"      : real [2, 50];
  property "req-cap-min"    : real [1, 10];
  property "req-cap-max"    : real [5, 20];
  property "req-offset-max" : real [0.5, 5];
  property "req-noise-max"  : real [1, 20];
  property "req-sens-min"   : real [0.1, 2];
  property "req-bits-min"   : real [8, 16];
  property "req-gain-max"   : real [10, 100];
  property "req-t-max"      : real [2, 20];

  // sensor model bands (linear)
  constraint "SensorCap-lo" :
    "base-cap" >= 0.02 * radius - 2 * gap - 0.5;
  constraint "SensorCap-hi" :
    "base-cap" <= 0.02 * radius - 2 * gap + 0.5;
  constraint "Sensitivity-hi" :
    sensitivity <= 0.004 * radius - 0.1 * thickness - 0.2 * gap + 0.2;
  constraint "MaxPressure-hi" :
    "max-pressure" <= 50 * thickness - 0.05 * radius + 20;
  constraint "SensorNoise-lo" :
    "sensor-noise" >= 1.8 - 0.002 * radius + 0.1 * gap;
  constraint "Yield-hi" :
    yield <= 92 - 2 * thickness - 0.004 * radius + 3 * gap;

  // interface model bands (linear)
  constraint "CircuitNoise-lo" :
    "circuit-noise" >= 4.7 - 0.04 * "amp-gain" - 0.8 * "bias-current";
  constraint "InterfacePower-lo" :
    "interface-power" >= 2 * "bias-current" + 0.05 * "amp-gain" + 0.3 * "adc-bits" - 0.5;
  constraint "Offset-lo" :
    offset >= 2.7 - 0.1 * "amp-gain";

  // system constraints
  constraint Resolution :
    "sensor-noise" + "circuit-noise" <= 2 * "req-resolution" * sensitivity;
  constraint YieldReq : yield >= "req-yield";
  constraint PressureRange : "max-pressure" >= "req-range";
  constraint PowerBudget : "interface-power" <= "req-power";
  constraint "CapWindow-lo" : "base-cap" >= "req-cap-min";
  constraint "CapWindow-hi" : "base-cap" <= "req-cap-max";
  constraint OffsetReq : offset <= "req-offset-max";
  constraint NoiseBudget : "sensor-noise" + "circuit-noise" <= "req-noise-max";
  constraint SensReq : sensitivity >= "req-sens-min";
  constraint BitsReq : "adc-bits" >= "req-bits-min";
  constraint GainMax : "amp-gain" <= "req-gain-max";
  constraint ThicknessMax : thickness <= "req-t-max";

  // the synthesis tools' models (band centres)
  model "base-cap"        = 0.02 * radius - 2 * gap;
  model sensitivity       = 0.004 * radius - 0.1 * thickness - 0.2 * gap;
  model "max-pressure"    = 50 * thickness - 0.05 * radius;
  model "sensor-noise"    = 2 - 0.002 * radius + 0.1 * gap;
  model yield             = 90 - 2 * thickness - 0.004 * radius + 3 * gap;
  model "circuit-noise"   = 5 - 0.04 * "amp-gain" - 0.8 * "bias-current";
  model "interface-power" = 2 * "bias-current" + 0.05 * "amp-gain" + 0.3 * "adc-bits";
  model offset            = 3 - 0.1 * "amp-gain";

  requirement "req-resolution" = 2.3;
  requirement "req-yield" = 78;
  requirement "req-range" = 180;
  requirement "req-power" = 8.5;
  requirement "req-cap-min" = 3;
  requirement "req-cap-max" = 12;
  requirement "req-offset-max" = 2;
  requirement "req-noise-max" = 5.5;
  requirement "req-sens-min" = 0.5;
  requirement "req-bits-min" = 10;
  requirement "req-gain-max" = 50;
  requirement "req-t-max" = 10;

  object PressureSensor {
    properties: radius, thickness, gap, "base-cap", sensitivity,
      "max-pressure", "sensor-noise", yield;
  }
  object InterfaceCircuit {
    properties: "amp-gain", "adc-bits", "bias-current", "circuit-noise",
      "interface-power", offset;
  }

  problem "sensing-system" owner leader {
    inputs: "req-resolution", "req-yield", "req-range", "req-power",
      "req-cap-min", "req-cap-max", "req-offset-max", "req-noise-max",
      "req-sens-min", "req-bits-min", "req-gain-max", "req-t-max";
    constraints: Resolution, YieldReq, PressureRange, PowerBudget,
      "CapWindow-lo", "CapWindow-hi", OffsetReq, NoiseBudget, SensReq,
      BitsReq, GainMax, ThicknessMax;
    subproblem "pressure-sensor" owner mems {
      inputs: "req-resolution", "req-yield", "req-range";
      outputs: radius, thickness, gap, "base-cap", sensitivity,
        "max-pressure", "sensor-noise", yield;
      constraints: "SensorCap-lo", "SensorCap-hi", "Sensitivity-hi",
        "MaxPressure-hi", "SensorNoise-lo", "Yield-hi";
      object: PressureSensor;
    }
    subproblem "interface-circuit" owner analog {
      inputs: "req-resolution", "req-power", "req-noise-max";
      outputs: "amp-gain", "adc-bits", "bias-current", "circuit-noise",
        "interface-power", offset;
      constraints: "CircuitNoise-lo", "InterfacePower-lo", "Offset-lo";
      object: InterfaceCircuit;
    }
  }
}
|}

let decl = Adpm_dddl.Parser.parse source

let scenario =
  {
    (Adpm_dddl.Elaborate.scenario decl) with
    Scenario.sc_description =
      "MEMS pressure sensing system: 26 properties, 21 mostly-linear constraints";
  }
