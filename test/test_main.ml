let () =
  Alcotest.run "adpm"
    [
      ("util", Test_util.suite);
      ("interval", Test_interval.suite);
      ("expr", Test_expr.suite);
      ("hc4", Test_hc4.suite);
      ("csp", Test_csp.suite);
      ("incremental", Test_incremental.suite);
      ("core", Test_core.suite);
      ("sim", Test_sim.suite);
      ("teamsim", Test_teamsim.suite);
      ("des", Test_des.suite);
      (* forks inside: must run before the "domains" suite spawns, since
         the OCaml 5 runtime forbids Unix.fork once a domain exists *)
      ("serve-wire", Test_serve.wire_suite);
      ("domains", Test_domains.suite);
      ("parallel", Test_parallel.suite);
      ("influence", Test_influence.suite);
      ("compiled", Test_compiled.suite);
      ("designer", Test_designer.suite);
      ("relaxed", Test_relaxed.suite);
      ("transition", Test_transition.suite);
      ("fault", Test_fault.suite);
      ("check", Test_check.suite);
      ("trace", Test_trace.suite);
      ("export", Test_export.suite);
      ("dddl", Test_dddl.suite);
      ("scenarios", Test_scenarios.suite);
      ("experiments", Test_experiments.suite);
      ("extensions", Test_extensions.suite);
      ("interactive", Test_interactive.suite);
      ("serve", Test_serve.suite);
      ("chaos", Test_chaos.suite);
      ("golden", Test_golden.suite);
    ]
