open Adpm_core

type op_record = {
  m_index : int;
  m_designer : string;
  m_kind : string;
  m_evaluations : int;
  m_new_violations : int;
  m_known_violations : int;
  m_spin : bool;
}

type fault_counts = { f_dropped : int; f_duplicated : int; f_crashes : int }

let no_faults = { f_dropped = 0; f_duplicated = 0; f_crashes = 0 }

type run_summary = {
  s_scenario : string;
  s_mode : Dpm.mode;
  s_seed : int;
  s_completed : bool;
  s_operations : int;
  s_evaluations : int;
  s_spins : int;
  s_faults : fault_counts;
  s_profile : op_record list;
}

let evaluations_per_op s =
  if s.s_operations = 0 then nan
  else float_of_int s.s_evaluations /. float_of_int s.s_operations

let violations_found s =
  List.fold_left (fun acc r -> acc + r.m_new_violations) 0 s.s_profile

let summary_line s =
  let per_op =
    if s.s_operations = 0 then "n/a"
    else Printf.sprintf "%.1f" (evaluations_per_op s)
  in
  let faults =
    if s.s_faults = no_faults then ""
    else
      Printf.sprintf ", faults: %d dropped/%d duplicated/%d crashes"
        s.s_faults.f_dropped s.s_faults.f_duplicated s.s_faults.f_crashes
  in
  Printf.sprintf
    "%s/%s seed=%d: %s in %d ops, %d evals (%s/op), %d spins, %d violations%s"
    s.s_scenario
    (Dpm.mode_to_string s.s_mode)
    s.s_seed
    (if s.s_completed then "completed" else "DID NOT COMPLETE")
    s.s_operations s.s_evaluations per_op s.s_spins (violations_found s) faults
