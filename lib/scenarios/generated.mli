(** Randomly generated collaborative-design scenarios, emitted as DDDL.

    The paper's two cases are fixed points in problem-size space; its
    conclusion extrapolates — "for more complex design problems ADPM may
    provide a more substantial design process acceleration for a
    proportionally smaller computational penalty". This generator produces
    structurally similar scenarios of arbitrary size so the scaling and
    adaptability experiments can test that claim: [n] subsystems coupled by
    a configurable constraint graph, each with [k] free design parameters,
    a tool-computed power and gain per subsystem (linear models with random
    coefficients plus accuracy bands), a global power budget, and per-edge
    gain floors coupling subsystems.

    Every instance is satisfiable by construction: requirements are derived
    from a nominal witness point with controlled slack.

    The generator does not build a network directly. It constructs a DDDL
    declaration, renders it with {!Adpm_dddl.Printer} (round-trip checked) and
    elaborates the text — so the emitted source is the canonical artifact
    and [same spec string -> same artifact -> same network]. The scenario's
    name is the ["gen:<spec>"] string itself, which the registry resolves
    back to the identical scenario on any process. *)

open Adpm_core
open Adpm_teamsim

type topology =
  | Ring  (** subsystem [i] couples to [i+1 mod n]; the legacy shape *)
  | Star  (** subsystem 0 couples to every other subsystem *)
  | Random of float
      (** spanning chain plus each remaining pair independently with the
          given probability in [[0, 1]] *)

type params = {
  g_subsystems : int;  (** >= 2 *)
  g_vars_per_subsystem : int;  (** >= 1 *)
  g_seed : int;  (** generator seed: same seed, same network *)
  g_slack : float;
      (** requirement slack around the witness, e.g. 0.15 = 15% *)
  g_topology : topology;  (** constraint-graph shape of the gain couplings *)
  g_coupling : float;
      (** extra cross-subsystem coupling fraction in [[0, 1]]:
          [round (coupling * n)] additional edges beyond the topology *)
  g_slack_jitter : float;
      (** per-requirement hardness spread in [[0, 1)]: each requirement's
          slack is drawn uniformly from
          [slack * (1 - jitter), slack * (1 + jitter)] *)
}

val default_params : subsystems:int -> vars:int -> params
(** Seed 0, slack 0.15, ring topology, no extra coupling, no jitter —
    bit-identical to the pre-topology generator. *)

val spec_of_params : params -> string
(** Canonical textual form, e.g.
    ["n=4,k=3,seed=0,slack=0.15,jitter=0,topology=ring,coupling=0"].
    Round-trips through {!params_of_spec}. *)

val params_of_spec : string -> (params, string) result
(** Parse a spec string. [n] and [k] fields are comma-separated
    [key=value] pairs; missing fields take the {!default_params} values.
    Errors are descriptive: malformed field, unknown key, bad number, or
    a validation failure. *)

val source : params -> string
(** The canonical DDDL text for these parameters (round-trip checked). *)

val build : params -> mode:Dpm.mode -> Dpm.t
val scenario : params -> Scenario.t
(** Named ["gen:<spec>"]; elaborated from {!source}. *)

val property_count : params -> int
(** Numeric properties the instance will have (for reporting). *)

val constraint_count : params -> int
