(* The metrics every run prints, with their units. BENCHMARK.json at the
   repository root declares the same names and units; the smoke test
   holds the two together. *)

let workloads =
  [
    "sim-adpm";
    "sim-conventional";
    "sim-gen-large";
    "teamsimd-churn";
    "teamsimd-recovery";
  ]

(* Printed by untraced runs. An operation is a simulated design
   operation, a daemon request, or a daemon restart, by workload. *)
let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let layer name = [ (name ^ ".share", "frac"); (name ^ ".calls", "count") ]

(* Printed by traced runs. Every run prints every name; a layer its
   workload does not exercise reads 0. Shares are of [layers.item_us],
   the per-item time the workload's layers divide. *)
let per_layer =
  List.concat_map layer
    [
      "engine.setup";
      "designer";
      "propagate";
      "dpm.apply";
      "dpm.notify";
      "engine.dispatch";
    ]
  @ [
      ("designer.idle_frac", "frac");
      ("designer.choose_evals_per_op", "count");
      ("propagate.revisions_per_sim", "count");
      ("propagate.incremental_frac", "frac");
      ("notify.notifications_per_op", "count");
      ("engine.deliveries_per_op", "count");
    ]
  @ List.concat_map layer
      [
        "transport";
        "wire.frame";
        "json.decode";
        "json.encode";
        "daemon.handle.open";
        "daemon.handle.exec";
        "daemon.handle.status";
        "daemon.handle.close";
        "session.exec";
        "journal.append";
        "journal.create";
      ]
  @ [
      ("journal.fsyncs_per_op", "count");
      ("wire.bytes_in_per_op", "B");
      ("wire.bytes_out_per_op", "B");
    ]
  @ List.concat_map layer
      [
        "daemon.spawn";
        "journal.scan";
        "session.rebuild";
        "session.replay_entry";
        "journal.rewrite";
      ]
  @ [
      ("journal.bytes_scanned", "B");
      ("layers.item_us", "us");
      ("trace.overhead", "frac");
    ]
