open Adpm_util
open Adpm_expr
open Adpm_teamsim
module Ast = Adpm_dddl.Ast

type topology = Ring | Star | Random of float

type params = {
  g_subsystems : int;
  g_vars_per_subsystem : int;
  g_seed : int;
  g_slack : float;
  g_topology : topology;
  g_coupling : float;
  g_slack_jitter : float;
}

let default_params ~subsystems ~vars =
  { g_subsystems = subsystems; g_vars_per_subsystem = vars; g_seed = 0;
    g_slack = 0.15; g_topology = Ring; g_coupling = 0.; g_slack_jitter = 0. }

let validate p =
  if p.g_subsystems < 2 then invalid_arg "Generated: need >= 2 subsystems";
  if p.g_vars_per_subsystem < 1 then invalid_arg "Generated: need >= 1 var";
  if p.g_slack <= 0. then invalid_arg "Generated: slack must be positive";
  (match p.g_topology with
  | Random prob when not (prob >= 0. && prob <= 1.) ->
    invalid_arg "Generated: random topology density must be in [0, 1]"
  | Ring | Star | Random _ -> ());
  if not (p.g_coupling >= 0. && p.g_coupling <= 1.) then
    invalid_arg "Generated: coupling fraction must be in [0, 1]";
  if not (p.g_slack_jitter >= 0. && p.g_slack_jitter < 1.) then
    invalid_arg "Generated: slack jitter must be in [0, 1)"

(* {2 Spec strings}

   A generated scenario is identified by a [gen:<spec>] string — the full
   parameter set in text form — so the artifact recorded in a trace header
   is enough to rebuild the identical network on a fresh process. *)

(* shortest representation that parses back to the same float, so
   params -> spec -> params is the identity (same policy as the DDDL
   printer's float literals) *)
let float_lit x =
  let s = Printf.sprintf "%.12g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let topology_to_string = function
  | Ring -> "ring"
  | Star -> "star"
  | Random prob -> Printf.sprintf "random-%s" (float_lit prob)

let topology_of_string s =
  match s with
  | "ring" -> Ok Ring
  | "star" -> Ok Star
  | _ ->
    let prefix = "random-" in
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      match float_of_string_opt (String.sub s pl (String.length s - pl)) with
      | Some prob -> Ok (Random prob)
      | None -> Error (Printf.sprintf "bad random topology density in %S" s)
    else
      Error
        (Printf.sprintf
           "unknown topology %S (want ring, star or random-<density>)" s)

let spec_of_params p =
  Printf.sprintf "n=%d,k=%d,seed=%d,slack=%s,jitter=%s,topology=%s,coupling=%s"
    p.g_subsystems p.g_vars_per_subsystem p.g_seed (float_lit p.g_slack)
    (float_lit p.g_slack_jitter)
    (topology_to_string p.g_topology)
    (float_lit p.g_coupling)

let params_of_spec spec =
  let ( let* ) = Result.bind in
  let parse_field acc field =
    let* acc = acc in
    match String.index_opt field '=' with
    | None ->
      Error (Printf.sprintf "malformed field %S (want key=value)" field)
    | Some i ->
      let key = String.sub field 0 i in
      let value = String.sub field (i + 1) (String.length field - i - 1) in
      let int_v f =
        match int_of_string_opt value with
        | Some v -> Ok (f v)
        | None -> Error (Printf.sprintf "field %s: %S is not an integer" key value)
      in
      let float_v f =
        match float_of_string_opt value with
        | Some v -> Ok (f v)
        | None -> Error (Printf.sprintf "field %s: %S is not a number" key value)
      in
      (match key with
      | "n" -> int_v (fun v -> { acc with g_subsystems = v })
      | "k" -> int_v (fun v -> { acc with g_vars_per_subsystem = v })
      | "seed" -> int_v (fun v -> { acc with g_seed = v })
      | "slack" -> float_v (fun v -> { acc with g_slack = v })
      | "jitter" -> float_v (fun v -> { acc with g_slack_jitter = v })
      | "coupling" -> float_v (fun v -> { acc with g_coupling = v })
      | "topology" ->
        let* t = topology_of_string value in
        Ok { acc with g_topology = t }
      | _ ->
        Error
          (Printf.sprintf
             "unknown field %S (want n, k, seed, slack, jitter, topology or coupling)"
             key))
  in
  let fields =
    String.split_on_char ',' (String.trim spec)
    |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  if fields = [] then Error "empty spec"
  else
    let* p =
      List.fold_left parse_field
        (Ok (default_params ~subsystems:2 ~vars:1))
        fields
    in
    match validate p with
    | () -> Ok p
    | exception Invalid_argument msg -> Error msg

(* {2 Structure derivation}

   Everything stochastic is drawn from one generator in a fixed order
   (model coefficients, then topology, then coupling, then slack jitter),
   so the same spec always derives the same structure. Draws are skipped
   entirely when their knob is off, keeping legacy ring scenarios
   bit-identical to the pre-topology generator. *)

let var_name i j = Printf.sprintf "x%d_%d" i j
let power_name i = Printf.sprintf "power%d" i
let gain_name i = Printf.sprintf "gain%d" i
let gmin_name e = Printf.sprintf "gmin%d" e

let ring_edges n =
  if n = 2 then [ (0, 1) ] else List.init n (fun i -> (i, (i + 1) mod n))

type instance = {
  i_power_base : float array;  (* per subsystem *)
  i_power_coeff : float array array;  (* per subsystem, per var *)
  i_gain_coeff : float array array;
}

type structure = {
  s_instance : instance;
  s_edges : (int * int) list;  (* gain-floor couplings, in gmin index order *)
  s_budget_slack : float;
  s_edge_slacks : float list;
}

let mem_edge (a, b) edges =
  List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) edges

let draw_edges rng p =
  let n = p.g_subsystems in
  let base =
    match p.g_topology with
    | Ring -> ring_edges n
    | Star -> List.init (n - 1) (fun i -> (0, i + 1))
    | Random prob ->
      (* a spanning chain keeps every subsystem coupled in; remaining
         pairs join with the given density *)
      let chain = List.init (n - 1) (fun i -> (i, i + 1)) in
      let extra = ref [] in
      for i = 0 to n - 1 do
        for j = i + 2 to n - 1 do
          if Rng.float rng 1. < prob then extra := (i, j) :: !extra
        done
      done;
      chain @ List.rev !extra
  in
  let wanted =
    int_of_float (Float.round (p.g_coupling *. float_of_int n))
  in
  if wanted <= 0 then base
  else begin
    let candidates = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if not (mem_edge (i, j) base) then candidates := (i, j) :: !candidates
      done
    done;
    let pool = Array.of_list (List.rev !candidates) in
    let avail = ref (Array.length pool) in
    let picked = ref [] in
    for _ = 1 to min wanted !avail do
      let idx = Rng.int rng !avail in
      picked := pool.(idx) :: !picked;
      pool.(idx) <- pool.(!avail - 1);
      decr avail
    done;
    base @ List.rev !picked
  end

let structure p =
  let rng = Rng.create (0x9e37 + p.g_seed) in
  let n = p.g_subsystems and k = p.g_vars_per_subsystem in
  let inst =
    {
      i_power_base = Array.init n (fun _ -> Rng.float_range rng 1. 3.);
      i_power_coeff =
        Array.init n (fun _ -> Array.init k (fun _ -> Rng.float_range rng 0.3 1.0));
      i_gain_coeff =
        Array.init n (fun _ -> Array.init k (fun _ -> Rng.float_range rng 0.4 1.2));
    }
  in
  let edges = draw_edges rng p in
  let slack () =
    if p.g_slack_jitter = 0. then p.g_slack
    else
      Rng.float_range rng
        (p.g_slack *. (1. -. p.g_slack_jitter))
        (p.g_slack *. (1. +. p.g_slack_jitter))
  in
  let budget_slack = slack () in
  let edge_slacks = List.map (fun _ -> slack ()) edges in
  { s_instance = inst; s_edges = edges; s_budget_slack = budget_slack;
    s_edge_slacks = edge_slacks }

let property_count p =
  validate p;
  let n = p.g_subsystems and k = p.g_vars_per_subsystem in
  (n * (k + 2)) + 1 + List.length (structure p).s_edges

let constraint_count p =
  validate p;
  let n = p.g_subsystems in
  (2 * n) + 1 + List.length (structure p).s_edges

let witness_value = 5.

let power_model inst i k =
  Expr.sum
    (Expr.const inst.i_power_base.(i)
    :: List.init k (fun j ->
           Expr.scale inst.i_power_coeff.(i).(j) (Expr.var (var_name i j))))

let gain_model inst i k =
  Expr.sum
    (List.init k (fun j ->
         Expr.scale inst.i_gain_coeff.(i).(j) (Expr.var (var_name i j))))

let power_at_witness inst i =
  inst.i_power_base.(i)
  +. (witness_value *. Array.fold_left ( +. ) 0. inst.i_power_coeff.(i))

let gain_at_witness inst i =
  witness_value *. Array.fold_left ( +. ) 0. inst.i_gain_coeff.(i)

(* {2 DDDL declaration}

   The generator builds an AST and goes through [Printer] + [Elaborate]:
   the emitted text is the scenario, and the in-memory declaration is only
   a means of producing it. [Printer.checked] guarantees the text elaborates to
   the same network the declaration describes. *)

let decl p =
  validate p;
  let { s_instance = inst; s_edges = edges; s_budget_slack; s_edge_slacks } =
    structure p
  in
  let n = p.g_subsystems and k = p.g_vars_per_subsystem in
  let real lo hi = Ast.D_real (lo, hi) in
  let prop name dom = { Ast.pd_name = name; pd_domain = dom; pd_levels = None } in
  let properties =
    List.concat
      (List.init n (fun i ->
           let p_max =
             inst.i_power_base.(i)
             +. (10. *. Array.fold_left ( +. ) 0. inst.i_power_coeff.(i))
           in
           let g_max = 10. *. Array.fold_left ( +. ) 0. inst.i_gain_coeff.(i) in
           List.init k (fun j -> prop (var_name i j) (real 0. 10.))
           @ [
               prop (power_name i) (real 0. (p_max +. 1.));
               prop (gain_name i) (real 0. (g_max +. 1.));
             ]))
  in
  let total_power_witness =
    List.fold_left ( +. ) 0. (List.init n (fun i -> power_at_witness inst i))
  in
  let budget = total_power_witness *. (1. +. s_budget_slack) in
  let floor_of (a, b) slack =
    (gain_at_witness inst a +. gain_at_witness inst b) *. (1. -. slack)
  in
  let floors = List.map2 floor_of edges s_edge_slacks in
  let properties =
    properties
    @ (prop "p_budget" (real 1. (budget *. 2.))
      :: List.mapi
           (fun e floor_v -> prop (gmin_name e) (real 0.1 (floor_v *. 2.)))
           floors)
  in
  let constr name lhs rel rhs =
    { Ast.cd_name = name; cd_lhs = lhs; cd_rel = rel; cd_rhs = rhs;
      cd_monotone = [] }
  in
  let bands =
    List.concat
      (List.init n (fun i ->
           [
             constr (Printf.sprintf "PowerBand%d" i)
               (Expr.var (power_name i))
               Adpm_csp.Constr.Ge
               Expr.(power_model inst i k - const 0.5);
             constr (Printf.sprintf "GainBand%d" i)
               (Expr.var (gain_name i))
               Adpm_csp.Constr.Le
               Expr.(gain_model inst i k + const 0.4);
           ]))
  in
  let total_power =
    constr "TotalPower"
      (Expr.sum (List.init n (fun i -> Expr.var (power_name i))))
      Adpm_csp.Constr.Le (Expr.var "p_budget")
  in
  let gain_floors =
    List.mapi
      (fun e (a, b) ->
        constr (Printf.sprintf "GainFloor%d" e)
          Expr.(Expr.var (gain_name a) + Expr.var (gain_name b))
          Adpm_csp.Constr.Ge
          (Expr.var (gmin_name e)))
      edges
  in
  let models =
    List.concat
      (List.init n (fun i ->
           [
             (power_name i, power_model inst i k);
             (gain_name i, gain_model inst i k);
           ]))
  in
  let requirements =
    ("p_budget", budget)
    :: List.mapi (fun e floor_v -> (gmin_name e, floor_v)) floors
  in
  let objects =
    List.init n (fun i ->
        ( Printf.sprintf "Subsystem%d" i,
          List.init k (var_name i) @ [ power_name i; gain_name i ] ))
  in
  let subproblems =
    List.init n (fun i ->
        {
          Ast.prd_name = Printf.sprintf "subsystem-%d" i;
          prd_owner = Printf.sprintf "designer%d" i;
          prd_inputs = [ "p_budget" ];
          prd_outputs = List.init k (var_name i) @ [ power_name i; gain_name i ];
          prd_constraints =
            [ Printf.sprintf "PowerBand%d" i; Printf.sprintf "GainBand%d" i ];
          prd_object = Some (Printf.sprintf "Subsystem%d" i);
          prd_after = [];
          prd_children = [];
        })
  in
  let top =
    {
      Ast.prd_name = Printf.sprintf "generated-%dx%d" n k;
      prd_owner = "leader";
      prd_inputs = List.map fst requirements;
      prd_outputs = [];
      prd_constraints =
        "TotalPower" :: List.mapi (fun e _ -> Printf.sprintf "GainFloor%d" e) edges;
      prd_object = None;
      prd_after = [];
      prd_children = subproblems;
    }
  in
  {
    Ast.sd_name = "gen:" ^ spec_of_params p;
    sd_properties = properties;
    sd_constraints = bands @ (total_power :: gain_floors);
    sd_models = models;
    sd_requirements = requirements;
    sd_objects = objects;
    sd_problem = top;
  }

let source p = Adpm_dddl.Printer.checked (decl p)

(* The builder regenerates the declaration instead of keeping the parsed
   one alive beside the compiled scenario: the parameters are a few
   words, a declaration tens of kilobytes, and [source] checked that the
   two elaborate alike. *)
let scenario p =
  let base = Adpm_dddl.Elaborate.load_string (source p) in
  {
    base with
    Scenario.sc_description =
      Printf.sprintf
        "generated %s scenario: %d subsystems, %d parameters each, seed %d"
        (topology_to_string p.g_topology)
        p.g_subsystems p.g_vars_per_subsystem p.g_seed;
    sc_build = (fun ~mode -> Adpm_dddl.Elaborate.build (decl p) ~mode);
  }

let build p ~mode = (scenario p).Scenario.sc_build ~mode
