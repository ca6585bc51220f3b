open Adpm_expr
open Adpm_core

type slot = {
  s_mode : Dpm.mode;
  s_build : mode:Dpm.mode -> Dpm.t; (* what it was compiled from *)
  s_models : (string * Expr.t) list;
  s_compiled : Compiled.t;
}

type cell = { lock : Mutex.t; mutable slots : slot list }

type t = {
  sc_name : string;
  sc_description : string;
  sc_models : (string * Expr.t) list;
  sc_build : mode:Dpm.mode -> Dpm.t;
  sc_compiled : cell;
}

let make ~name ~description ?(models = []) build =
  {
    sc_name = name;
    sc_description = description;
    sc_models = models;
    sc_build = build;
    sc_compiled = { lock = Mutex.create (); slots = [] };
  }

(* The first compilation of a mode fills the cell; every later run of
   the scenario starts from it. A copy of the record with another builder
   or other models (the cell is shared by [with]) gets a private
   compilation and leaves the cell alone. *)
let compiled sc ~mode =
  let cell = sc.sc_compiled in
  Mutex.protect cell.lock (fun () ->
      match List.find_opt (fun s -> s.s_mode = mode) cell.slots with
      | Some s when s.s_build == sc.sc_build && s.s_models == sc.sc_models ->
        s.s_compiled
      | Some _ -> Compiled.compile ~models:sc.sc_models ~mode sc.sc_build
      | None ->
        let c = Compiled.compile ~models:sc.sc_models ~mode sc.sc_build in
        cell.slots <-
          { s_mode = mode; s_build = sc.sc_build; s_models = sc.sc_models; s_compiled = c }
          :: cell.slots;
        c)

let find scenarios name =
  List.find_opt (fun s -> String.equal s.sc_name name) scenarios

let resolver scenarios name =
  match find scenarios name with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "unknown scenario %s (known: %s)" name
         (String.concat ", " (List.map (fun s -> s.sc_name) scenarios)))
