(** Design problems.

    A design problem p_i = (I_i, O_i, T_i) (Section 2.1): input properties,
    output properties, and the constraints relating them. Problems form a
    decomposition hierarchy; each carries a status and an owner (the
    designer assigned to it). A problem whose declared dependencies are not
    yet solved has status [Waiting] and is skipped by the problem-selection
    function f_p. *)

type status = Open | Waiting | Solved

type t = private {
  pr_id : int;
  pr_name : string;
  pr_owner : string;
  pr_inputs : string list;
  pr_outputs : string list;
  pr_constraints : int list;  (** T_i: constraint ids *)
  mutable pr_parent : int option;
  mutable pr_children : int list;
  mutable pr_depends_on : int list;
      (** problem-ordering declarations, added by {!add_dependency} *)
  mutable pr_status : status;
  pr_object : string option;  (** design object realising this problem *)
}

val make :
  id:int ->
  name:string ->
  owner:string ->
  ?inputs:string list ->
  ?outputs:string list ->
  ?constraints:int list ->
  ?object_name:string ->
  unit ->
  t

val copy : t -> t
(** A fresh record in the same state: mutating one leaves the other
    alone. *)

val set_status : t -> status -> unit
val add_dependency : t -> int -> unit
val link_child : parent:t -> child:t -> unit
val is_leaf : t -> bool
val properties : t -> string list
(** Inputs followed by outputs, without duplicates. *)

val status_to_string : status -> string
