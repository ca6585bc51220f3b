open Adpm_expr
open Adpm_core

type analysis = { lock : Mutex.t; mutable table : Influence.t option }

type t = {
  sc_name : string;
  sc_description : string;
  sc_models : (string * Expr.t) list;
  sc_build : mode:Dpm.mode -> Dpm.t;
  sc_analysis : analysis;
}

let make ~name ~description ?(models = []) build =
  {
    sc_name = name;
    sc_description = description;
    sc_models = models;
    sc_build = build;
    sc_analysis = { lock = Mutex.create (); table = None };
  }

(* The first network analysed fills the cell; every later run of the
   scenario builds a network of the same structure and reads the same
   immutable table. A network the cached table does not describe (changed
   structurally after its build, or a copy of the record with other
   models) gets a private analysis and leaves the cell alone. *)
let influence sc net =
  let a = sc.sc_analysis in
  Mutex.protect a.lock (fun () ->
      match a.table with
      | Some tbl when Influence.models tbl == sc.sc_models && Influence.fits tbl net
        ->
        tbl
      | Some _ -> Influence.analyse ~models:sc.sc_models net
      | None ->
        let tbl = Influence.analyse ~models:sc.sc_models net in
        a.table <- Some tbl;
        tbl)

let find scenarios name =
  List.find_opt (fun s -> String.equal s.sc_name name) scenarios

let resolver scenarios name =
  match find scenarios name with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "unknown scenario %s (known: %s)" name
         (String.concat ", " (List.map (fun s -> s.sc_name) scenarios)))
