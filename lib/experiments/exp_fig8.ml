open Adpm_util
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

type row = {
  op : int;
  designer : string;
  kind : string;
  violations : int;
  cumulative_evaluations : int;
  cumulative_spins : int;
}

type result = {
  constraints : int;
  properties : int;
  rows : row list;
  completed : bool;
}

let run ?(seed = 1) () =
  let cfg = Config.default ~mode:Dpm.Adpm ~seed in
  let outcome = Engine.run cfg Receiver.scenario in
  let net = Dpm.network outcome.Engine.o_dpm in
  let evals = ref 0 and spins = ref 0 in
  let rows =
    List.map
      (fun r ->
        evals := !evals + r.Metrics.m_evaluations;
        if r.Metrics.m_spin then incr spins;
        {
          op = r.Metrics.m_index;
          designer = r.Metrics.m_designer;
          kind = r.Metrics.m_kind;
          violations = r.Metrics.m_known_violations;
          cumulative_evaluations = !evals;
          cumulative_spins = !spins;
        })
      outcome.Engine.o_summary.Metrics.s_profile
  in
  {
    constraints = Network.constraint_count net;
    properties = List.length (Network.prop_names net);
    rows;
    completed = outcome.Engine.o_summary.Metrics.s_completed;
  }

let render r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "=== Figure 8: design process statistics window (receiver, one run) ===\n\n";
  add "Number of properties:  %d\n" r.properties;
  add "Number of constraints: %d\n\n" r.constraints;
  let table =
    Table.create
      [ "Op"; "Designer"; "Kind"; "Violations"; "Cum. evals"; "Cum. spins" ]
  in
  Table.set_align table
    [ Table.Right; Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ];
  List.iter
    (fun row ->
      Table.add_row table
        [
          string_of_int row.op; row.designer; row.kind;
          string_of_int row.violations;
          string_of_int row.cumulative_evaluations;
          string_of_int row.cumulative_spins;
        ])
    r.rows;
  add "%s\n" (Table.render table);
  let points f = List.map (fun row -> (float_of_int row.op, f row)) r.rows in
  add "%s\n"
    (Ascii_chart.line_chart ~title:"statistics over operations"
       ~x_label:"operation number"
       [
         { Ascii_chart.label = "known violations";
           points = points (fun row -> float_of_int row.violations) };
         { Ascii_chart.label = "cumulative spins";
           points = points (fun row -> float_of_int row.cumulative_spins) };
       ]);
  add "run %s\n" (if r.completed then "completed" else "DID NOT COMPLETE");
  Buffer.contents buf
