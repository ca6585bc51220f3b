open Adpm_interval
open Adpm_csp

type prop_info = {
  hi_name : string;
  hi_assigned : Value.t option;
  hi_feasible : Domain.t;
  hi_relative_size : float;
  hi_alpha : int;
  hi_beta : int;
  hi_up_helps : int list;
  hi_down_helps : int list;
  hi_up_votes : int;
  hi_down_votes : int;
}

let mine_prop net name =
  let prop = Network.find_prop net name in
  let connected = Network.constraints_of_prop net name in
  let up_helps, down_helps =
    List.fold_left
      (fun (up, down) c ->
        match Network.helps_direction net c name with
        | `Up -> (c.Constr.id :: up, down)
        | `Down -> (up, c.Constr.id :: down)
        | `None -> (up, down))
      ([], []) connected
  in
  let violated c = Network.status net c = Constr.Violated in
  {
    hi_name = name;
    hi_assigned = Network.assigned_id net prop.Network.p_id;
    hi_feasible = Network.feasible_id net prop.Network.p_id;
    hi_relative_size =
      Domain.relative_measure ~initial:prop.Network.p_initial
        (Network.feasible_id net prop.Network.p_id);
    hi_alpha = Network.alpha net name;
    hi_beta = List.length connected;
    hi_up_helps = List.rev up_helps;
    hi_down_helps = List.rev down_helps;
    hi_up_votes = List.length (List.filter violated up_helps);
    hi_down_votes = List.length (List.filter violated down_helps);
  }

(* One-hop closure: the constraints of [name] plus every constraint of a
   property sharing a constraint with [name]. *)
let one_hop_constraints net name =
  let direct = Network.constraints_of_prop net name in
  let neighbour_props =
    List.sort_uniq compare (List.concat_map Constr.args direct)
  in
  let all =
    List.concat_map (fun p -> Network.constraints_of_prop net p) neighbour_props
  in
  List.sort_uniq
    (fun a b -> compare a.Constr.id b.Constr.id)
    (direct @ all)

let indirect_beta net name = List.length (one_hop_constraints net name)

let indirect_alpha net name =
  List.length
    (List.filter
       (fun c -> Network.status net c.Constr.id = Constr.Violated)
       (one_hop_constraints net name))

let mine net =
  Network.prop_names net
  |> List.filter (fun n -> Domain.is_numeric (Network.initial_domain net n))
  |> List.map (mine_prop net)

let preferred_direction info =
  if info.hi_up_votes > info.hi_down_votes then `Up
  else if info.hi_down_votes > info.hi_up_votes then `Down
  else `None

let pp_prop_info ppf info =
  Format.fprintf ppf
    "%s: v_F=%a (rel %.3f), alpha=%d, beta=%d, votes up/down=%d/%d"
    info.hi_name Domain.pp info.hi_feasible info.hi_relative_size info.hi_alpha
    info.hi_beta info.hi_up_votes info.hi_down_votes
