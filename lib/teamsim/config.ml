open Adpm_core
module Model = Adpm_sim.Model
module Fault = Adpm_fault.Fault

type forward_ordering = Smallest_subspace | Most_constrained | Random_target

type value_policy = Endpoint | Headroom

let value_policy_to_string = function
  | Endpoint -> "endpoint"
  | Headroom -> "headroom"

let value_policy_of_string = function
  | "endpoint" -> Ok Endpoint
  | "headroom" -> Ok Headroom
  | s ->
    Error (Printf.sprintf "unknown value policy %S (want endpoint|headroom)" s)

type t = {
  mode : Dpm.mode;
  seed : int;
  max_ops : int;
  latency : int;
  duration_model : Model.duration;
  faults : Fault.plan;
  forward_ordering : forward_ordering;
  use_alpha_repair : bool;
  use_monotone_hints : bool;
  use_history_tabu : bool;
  use_relaxed_feasible : bool;
  value_policy : value_policy;
  shifts : Shift.plan;
}

let default ~mode ~seed =
  {
    mode;
    seed;
    max_ops = 2000;
    latency = 0;
    duration_model = Model.unit_duration;
    faults = Fault.none;
    forward_ordering = Smallest_subspace;
    use_alpha_repair = true;
    use_monotone_hints = true;
    use_history_tabu = true;
    use_relaxed_feasible = true;
    value_policy = Endpoint;
    shifts = Shift.none;
  }

let with_seed t seed = { t with seed }

let validate t =
  let ( let* ) = Result.bind in
  let* () =
    if t.max_ops > 0 then Ok ()
    else Error (Printf.sprintf "max_ops must be positive (got %d)" t.max_ops)
  in
  let* () =
    Result.map_error
      (fun e -> Printf.sprintf "%s (got %d)" e t.latency)
      (Model.validate_latency t.latency)
  in
  let* () = Model.validate_duration t.duration_model in
  let* () = Fault.validate t.faults in
  Shift.validate t.shifts

let validate_exn t =
  match validate t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Config.validate: " ^ msg)
