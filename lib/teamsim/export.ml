open Adpm_util
open Adpm_core

let profile_csv summary =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "op,designer,kind,evaluations,new_violations,known_violations,spin\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%d,%d,%d,%b\n" r.Metrics.m_index
           (Escape.csv r.Metrics.m_designer)
           (Escape.csv r.Metrics.m_kind)
           r.Metrics.m_evaluations r.Metrics.m_new_violations
           r.Metrics.m_known_violations r.Metrics.m_spin))
    summary.Metrics.s_profile;
  Buffer.contents buf

let summary_json summary =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"scenario":"%s","mode":"%s","seed":%d,"completed":%b,"operations":%d,"evaluations":%d,"spins":%d,"dropped":%d,"duplicated":%d,"crashes":%d,"profile":[|}
       (Escape.json summary.Metrics.s_scenario)
       (Escape.json (Dpm.mode_to_string summary.Metrics.s_mode))
       summary.Metrics.s_seed summary.Metrics.s_completed
       summary.Metrics.s_operations summary.Metrics.s_evaluations
       summary.Metrics.s_spins summary.Metrics.s_faults.Metrics.f_dropped
       summary.Metrics.s_faults.Metrics.f_duplicated
       summary.Metrics.s_faults.Metrics.f_crashes);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           {|{"op":%d,"designer":"%s","kind":"%s","evaluations":%d,"new_violations":%d,"known_violations":%d,"spin":%b}|}
           r.Metrics.m_index
           (Escape.json r.Metrics.m_designer)
           (Escape.json r.Metrics.m_kind)
           r.Metrics.m_evaluations r.Metrics.m_new_violations
           r.Metrics.m_known_violations r.Metrics.m_spin))
    summary.Metrics.s_profile;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let runs_csv summaries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "scenario,mode,seed,completed,operations,evaluations,spins,violations,dropped,duplicated,crashes\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%b,%d,%d,%d,%d,%d,%d,%d\n"
           (Escape.csv s.Metrics.s_scenario)
           (Escape.csv (Dpm.mode_to_string s.Metrics.s_mode))
           s.Metrics.s_seed s.Metrics.s_completed s.Metrics.s_operations
           s.Metrics.s_evaluations s.Metrics.s_spins
           (Metrics.violations_found s) s.Metrics.s_faults.Metrics.f_dropped
           s.Metrics.s_faults.Metrics.f_duplicated
           s.Metrics.s_faults.Metrics.f_crashes))
    summaries;
  Buffer.contents buf
