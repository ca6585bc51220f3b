(* Corpus smoke gate for the canonical DDDL pipeline.

   Eight generator specs spanning the parameter space (topologies,
   coupling, slack, jitter). For each: resolve it through the registry
   (generate DDDL -> elaborate), check the emitted source parse/emit
   round-trip and the spec fixed point, and run one seed in both modes —
   every run must complete. Nonzero exit on any failure, so a generator,
   emitter, elaborator, or registry regression breaks @check. *)

open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

let specs =
  [
    "n=2,k=1,seed=0";
    "n=3,k=2,seed=7";
    "n=3,k=2,seed=7,topology=star";
    "n=4,k=2,seed=3,topology=random-0.5";
    "n=4,k=3,seed=1,coupling=0.5";
    "n=3,k=2,seed=5,slack=0.05";
    "n=4,k=2,seed=9,slack=0.3,jitter=0.4";
    "n=5,k=3,seed=2,topology=star,coupling=0.25";
  ]

let failures = ref 0

let fail spec fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %-45s %s\n" spec msg)
    fmt

let check spec =
  let failures_before = !failures in
  (match Registry.resolve_result ("gen:" ^ spec) with
  | Error e -> fail spec "does not resolve: %s" e
  | Ok scenario -> (
    match Generated.params_of_spec spec with
    | Error e -> fail spec "spec does not parse: %s" e
    | Ok params ->
      let canonical = Generated.spec_of_params params in
      (match Generated.params_of_spec canonical with
      | Ok p2 when Generated.spec_of_params p2 = canonical -> ()
      | Ok _ -> fail spec "canonical spec %S is not a fixed point" canonical
      | Error e -> fail spec "canonical spec %S: %s" canonical e);
      if scenario.Scenario.sc_name <> "gen:" ^ canonical then
        fail spec "scenario named %S, want %S" scenario.Scenario.sc_name
          ("gen:" ^ canonical);
      let source = Generated.source params in
      (match Adpm_dddl.Parser.parse source with
      | decl -> (
        match Adpm_dddl.Printer.roundtrip decl with
        | Ok _ -> ()
        | Error e -> fail spec "emit round-trip: %s" e)
      | exception Adpm_dddl.Parser.Error { line; col; message } ->
        fail spec "emitted DDDL does not parse (%d:%d): %s" line col message);
      List.iter
        (fun mode ->
          let cfg = Config.default ~mode ~seed:1 in
          match Engine.run cfg scenario with
          | outcome ->
            if not outcome.Engine.o_summary.Metrics.s_completed then
              fail spec "%s seed 1 did not complete"
                (Dpm.mode_to_string mode)
          | exception e ->
            fail spec "%s seed 1 raised %s" (Dpm.mode_to_string mode)
              (Printexc.to_string e))
        [ Dpm.Conventional; Dpm.Adpm ]));
  if !failures = failures_before then Printf.printf "ok   %s\n" spec

let () =
  List.iter check specs;
  if !failures > 0 then begin
    Printf.printf "corpus smoke: %d failure(s) over %d specs\n" !failures
      (List.length specs);
    exit 1
  end
  else
    Printf.printf "corpus smoke: %d specs generate, round-trip, and run\n"
      (List.length specs)
