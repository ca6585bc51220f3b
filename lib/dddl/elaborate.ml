open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_teamsim

exception Error of string

let errorf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let check_unique what names =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then errorf "duplicate %s %s" what n
      else Hashtbl.replace seen n ())
    names

let domain_of_decl name = function
  | Ast.D_real (lo, hi) ->
    if lo >= hi then errorf "property %s: empty real domain [%g, %g]" name lo hi;
    Domain.continuous lo hi
  | Ast.D_discrete values ->
    if values = [] then errorf "property %s: empty discrete domain" name;
    Domain.finite values
  | Ast.D_symbol values ->
    if values = [] then errorf "property %s: empty symbol domain" name;
    Domain.symbolic values

(* The DDDL declaration says which direction of the property helps satisfy
   the constraint; the network stores the direction of (lhs - rhs). *)
let diff_direction rel helps =
  match (rel, helps) with
  | Constr.Le, `Increasing | Constr.Ge, `Decreasing -> Monotone.Decreasing
  | Constr.Le, `Decreasing | Constr.Ge, `Increasing -> Monotone.Increasing
  | Constr.Eq, _ ->
    errorf "monotonicity declarations make no sense on equality constraints"

let validate decl =
  let prop_names = List.map (fun p -> p.Ast.pd_name) decl.Ast.sd_properties in
  check_unique "property" prop_names;
  (* malformed domains surface at elaboration, not first build *)
  List.iter
    (fun p -> ignore (domain_of_decl p.Ast.pd_name p.Ast.pd_domain))
    decl.Ast.sd_properties;
  check_unique "constraint" (List.map (fun c -> c.Ast.cd_name) decl.Ast.sd_constraints);
  check_unique "object" (List.map fst decl.Ast.sd_objects);
  let known p = List.mem p prop_names in
  let check_expr ctx e =
    List.iter
      (fun v -> if not (known v) then errorf "%s references unknown property %s" ctx v)
      (Expr.vars e)
  in
  List.iter
    (fun c ->
      let ctx = Printf.sprintf "constraint %s" c.Ast.cd_name in
      check_expr ctx c.Ast.cd_lhs;
      check_expr ctx c.Ast.cd_rhs;
      let args = Expr.vars c.Ast.cd_lhs @ Expr.vars c.Ast.cd_rhs in
      List.iter
        (fun m ->
          if not (List.mem m.Ast.md_prop args) then
            errorf "%s declares monotonicity in %s, which is not an argument"
              ctx m.Ast.md_prop)
        c.Ast.cd_monotone)
    decl.Ast.sd_constraints;
  List.iter
    (fun (target, model) ->
      if not (known target) then errorf "model targets unknown property %s" target;
      check_expr (Printf.sprintf "model of %s" target) model)
    decl.Ast.sd_models;
  check_unique "requirement" (List.map fst decl.Ast.sd_requirements);
  (* a requirement binds its property at build: reject here what
     [Network.assign] would refuse there *)
  List.iter
    (fun (target, value) ->
      match
        List.find_opt (fun p -> String.equal p.Ast.pd_name target)
          decl.Ast.sd_properties
      with
      | None -> errorf "requirement targets unknown property %s" target
      | Some p -> (
        match Domain.hull (domain_of_decl p.Ast.pd_name p.Ast.pd_domain) with
        | Some iv when Interval.mem value iv -> ()
        | Some _ | None ->
          errorf "requirement %s = %g lies outside the domain of %s" target
            value target))
    decl.Ast.sd_requirements;
  List.iter
    (fun (obj, props) ->
      List.iter
        (fun p ->
          if not (known p) then errorf "object %s lists unknown property %s" obj p)
        props)
    decl.Ast.sd_objects;
  let rec check_problem p =
    List.iter
      (fun prop ->
        if not (known prop) then
          errorf "problem %s references unknown property %s" p.Ast.prd_name prop)
      (p.Ast.prd_inputs @ p.Ast.prd_outputs);
    (match p.Ast.prd_object with
    | Some o when not (List.mem_assoc o decl.Ast.sd_objects) ->
      errorf "problem %s references unknown object %s" p.Ast.prd_name o
    | Some _ | None -> ());
    List.iter
      (fun cname ->
        if
          not
            (List.exists
               (fun c -> String.equal c.Ast.cd_name cname)
               decl.Ast.sd_constraints)
        then errorf "problem %s references unknown constraint %s" p.Ast.prd_name cname)
      p.Ast.prd_constraints;
    let sibling_names = List.map (fun c -> c.Ast.prd_name) p.Ast.prd_children in
    check_unique "subproblem" sibling_names;
    List.iter
      (fun child ->
        List.iter
          (fun dep ->
            if not (List.mem dep sibling_names) then
              errorf "problem %s depends on unknown sibling %s"
                child.Ast.prd_name dep)
          child.Ast.prd_after;
        check_problem child)
      p.Ast.prd_children
  in
  check_problem decl.Ast.sd_problem

let build decl ~mode =
  let net = Network.create () in
  List.iter
    (fun p ->
      let meta =
        match p.Ast.pd_levels with
        | Some levels -> [ ("levels", levels) ]
        | None -> []
      in
      Network.add_prop net ~meta p.Ast.pd_name
        (domain_of_decl p.Ast.pd_name p.Ast.pd_domain))
    decl.Ast.sd_properties;
  let constraint_ids = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let built =
        Network.add_constraint net ~name:c.Ast.cd_name c.Ast.cd_lhs c.Ast.cd_rel
          c.Ast.cd_rhs
      in
      Hashtbl.replace constraint_ids c.Ast.cd_name built.Constr.id;
      List.iter
        (fun m ->
          Network.declare_monotone net built.Constr.id m.Ast.md_prop
            (diff_direction c.Ast.cd_rel m.Ast.md_helps))
        c.Ast.cd_monotone)
    decl.Ast.sd_constraints;
  List.iter
    (fun (target, value) -> Network.assign net target (Value.Num value))
    decl.Ast.sd_requirements;
  let objects =
    List.map
      (fun (name, properties) -> Design_object.make ~name ~properties)
      decl.Ast.sd_objects
  in
  let cids names = List.map (fun n -> Hashtbl.find constraint_ids n) names in
  let top_decl = decl.Ast.sd_problem in
  let top =
    Problem.make ~id:0 ~name:top_decl.Ast.prd_name ~owner:top_decl.Ast.prd_owner
      ~inputs:top_decl.Ast.prd_inputs ~outputs:top_decl.Ast.prd_outputs
      ~constraints:(cids top_decl.Ast.prd_constraints)
      ?object_name:top_decl.Ast.prd_object ()
  in
  let dpm = Dpm.create ~mode net ~objects ~top in
  (* register subproblems depth-first; resolve sibling ordering afterwards *)
  let rec register parent_id siblings_tbl p =
    let id = Dpm.fresh_problem_id dpm in
    let built =
      Problem.make ~id ~name:p.Ast.prd_name ~owner:p.Ast.prd_owner
        ~inputs:p.Ast.prd_inputs ~outputs:p.Ast.prd_outputs
        ~constraints:(cids p.Ast.prd_constraints)
        ?object_name:p.Ast.prd_object ()
    in
    Dpm.register_problem dpm ~parent:(Some parent_id) built;
    Hashtbl.replace siblings_tbl p.Ast.prd_name built;
    let child_tbl = Hashtbl.create 4 in
    List.iter (fun child -> register id child_tbl child) p.Ast.prd_children;
    (* resolve this level's orderings *)
    List.iter
      (fun child ->
        let built_child = Hashtbl.find child_tbl child.Ast.prd_name in
        List.iter
          (fun dep ->
            Problem.add_dependency built_child
              (Hashtbl.find child_tbl dep).Problem.pr_id)
          child.Ast.prd_after)
      p.Ast.prd_children
  in
  let top_children_tbl = Hashtbl.create 4 in
  List.iter
    (fun child -> register 0 top_children_tbl child)
    top_decl.Ast.prd_children;
  List.iter
    (fun child ->
      let built_child = Hashtbl.find top_children_tbl child.Ast.prd_name in
      List.iter
        (fun dep ->
          Problem.add_dependency built_child
            (Hashtbl.find top_children_tbl dep).Problem.pr_id)
        child.Ast.prd_after)
    top_decl.Ast.prd_children;
  dpm

let scenario decl =
  validate decl;
  Scenario.make ~name:decl.Ast.sd_name
    ~description:(Printf.sprintf "DDDL scenario %s" decl.Ast.sd_name)
    ~models:decl.Ast.sd_models
    (fun ~mode -> build decl ~mode)

let with_requirements values decl =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name decl.Ast.sd_requirements) then
        errorf "%s is not a declared requirement of scenario %s" name
          decl.Ast.sd_name)
    values;
  let decl =
    {
      decl with
      Ast.sd_requirements =
        List.map
          (fun (name, value) ->
            (name, Option.value (List.assoc_opt name values) ~default:value))
          decl.Ast.sd_requirements;
    }
  in
  validate decl;
  decl

(* Render a lexer/parser position as a caret message so a misplaced token
   in an embedded or on-disk DDDL source points at the offending spot:

     line 2, column 12: expected a property name
       property ; }
                ^                                                       *)
let caret_message src ~line ~col message =
  let source_line =
    match List.nth_opt (String.split_on_char '\n' src) (line - 1) with
    | Some l -> l
    | None -> ""
  in
  Printf.sprintf "line %d, column %d: %s\n  %s\n  %s^" line col message
    source_line
    (String.make (max 0 (col - 1)) ' ')

let load_string src =
  match Parser.parse src with
  | decl -> scenario decl
  | exception Lexer.Error { line; col; message } ->
    raise (Error (caret_message src ~line ~col message))
  | exception Parser.Error { line; col; message } ->
    raise (Error (caret_message src ~line ~col message))
