type status = Open | Waiting | Solved

type t = {
  pr_id : int;
  pr_name : string;
  pr_owner : string;
  pr_inputs : string list;
  pr_outputs : string list;
  pr_constraints : int list;
  mutable pr_parent : int option;
  mutable pr_children : int list;
  mutable pr_depends_on : int list;
  mutable pr_status : status;
  pr_object : string option;
}

let make ~id ~name ~owner ?(inputs = []) ?(outputs = []) ?(constraints = [])
    ?object_name () =
  {
    pr_id = id;
    pr_name = name;
    pr_owner = owner;
    pr_inputs = inputs;
    pr_outputs = outputs;
    pr_constraints = constraints;
    pr_parent = None;
    pr_children = [];
    pr_depends_on = [];
    pr_status = Open;
    pr_object = object_name;
  }

let copy t = { t with pr_id = t.pr_id }
let set_status t status = t.pr_status <- status

let add_dependency t pid =
  if not (List.mem pid t.pr_depends_on) then
    t.pr_depends_on <- t.pr_depends_on @ [ pid ]

let link_child ~parent ~child =
  child.pr_parent <- Some parent.pr_id;
  if not (List.mem child.pr_id parent.pr_children) then
    parent.pr_children <- parent.pr_children @ [ child.pr_id ]

let is_leaf t = t.pr_children = []

let properties t =
  t.pr_inputs @ List.filter (fun o -> not (List.mem o t.pr_inputs)) t.pr_outputs

let status_to_string = function
  | Open -> "Open"
  | Waiting -> "Waiting"
  | Solved -> "Solved"
