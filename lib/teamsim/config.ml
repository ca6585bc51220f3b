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
  max_revisions : int;
  latency : int;
  duration_model : Model.duration;
  faults : Fault.plan;
  delta_divisor : float;
  adaptive_delta : bool;
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
    max_revisions = 10_000;
    latency = 0;
    duration_model = Model.unit_duration;
    faults = Fault.none;
    delta_divisor = 100.;
    adaptive_delta = true;
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
  if t.max_ops <= 0 then
    Error (Printf.sprintf "max_ops must be positive (got %d)" t.max_ops)
  else if t.max_revisions <= 0 then
    Error
      (Printf.sprintf "max_revisions must be positive (got %d)" t.max_revisions)
  else
    match Model.validate_latency t.latency with
    | Error e -> Error (Printf.sprintf "%s (got %d)" e t.latency)
    | Ok () -> (
      match Model.validate_duration t.duration_model with
      | Error e -> Error e
      | Ok () -> (
        match Fault.validate t.faults with
        | Error e -> Error e
        | Ok () -> (
          (* the comparison also rejects nan *)
          if not (t.delta_divisor > 0.) then
            Error
              (Printf.sprintf "delta_divisor must be positive (got %g)"
                 t.delta_divisor)
          else
            match Shift.validate t.shifts with
            | Error e -> Error e
            | Ok () -> Ok ())))

let validate_exn t =
  match validate t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Config.validate: " ^ msg)
