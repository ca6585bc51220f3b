(** Design objects.

    A design object is a named set of properties representing a part of the
    design (Section 2.1). Objects mirror the problem decomposition — the
    "design object hierarchy" component of the design process state, held
    as each problem's [pr_object] — and carry a version number that the
    DPM bumps whenever
    one of the object's properties is (re)assigned, as in the object browser
    of Fig. 2 ("Version number: 1.0.1"). *)

type t = private {
  o_name : string;
  o_properties : string list;
  mutable o_version : int * int * int;
}

val make : name:string -> properties:string list -> t

val copy : t -> t
(** A fresh record at the same version. *)

val version_string : t -> string
(** "1.0.1"-style rendering. *)

val bump_patch : t -> unit
(** Record a property-value revision. *)

val owns : t -> string -> bool
(** Does the object directly contain the property? *)
