open Adpm_interval
open Adpm_csp
open Adpm_core

type problem_spec = {
  ps_name : string;
  ps_owner : string;
  ps_inputs : string list;
  ps_outputs : string list;
  ps_constraints : Constr.t list;
  ps_object : string option;
}

let continuous net name lo hi = Network.add_prop net name (Domain.continuous lo hi)

let le net name lhs rhs = Network.add_constraint net ~name lhs Constr.Le rhs
let ge net name lhs rhs = Network.add_constraint net ~name lhs Constr.Ge rhs

let assemble ~mode ~net ~objects ~top_name ~leader ~requirements
    ~system_constraints ~subproblems =
  List.iter
    (fun (name, value) -> Network.assign net name (Value.Num value))
    requirements;
  let top =
    Problem.make ~id:0 ~name:top_name ~owner:leader
      ~inputs:(List.map fst requirements)
      ~constraints:(List.map (fun c -> c.Constr.id) system_constraints)
      ()
  in
  let dpm = Dpm.create ~mode net ~objects ~top in
  List.iteri
    (fun i spec ->
      let p =
        Problem.make ~id:(i + 1) ~name:spec.ps_name ~owner:spec.ps_owner
          ~inputs:spec.ps_inputs ~outputs:spec.ps_outputs
          ~constraints:(List.map (fun c -> c.Constr.id) spec.ps_constraints)
          ?object_name:spec.ps_object ()
      in
      Dpm.register_problem dpm ~parent:(Some 0) p)
    subproblems;
  dpm
