(* The designer's static influence table.

   The oracle is the designer's former from-scratch path: for every
   (constraint, parameter) pair, walk the constraint's arguments, take
   [Network.helps_direction] for the parameter itself and compose it with
   [Monotone.direction] through the model of a derived argument that
   mentions the parameter. QCheck compares the table with it on the four
   built-in scenarios (as shipped, and with random monotonicity
   declarations layered on) and on generated networks spanning topology,
   coupling and jitter. Then: the table is shared across domains without
   changing a summary, every resolution of a [gen:] spec analyses afresh,
   and a network changed structurally after analysis is re-analysed. *)

open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_scenarios

(* {2 Oracle} *)

let initial_hull_env net prop =
  match Domain.hull (Network.initial_domain net prop) with
  | Some iv -> iv
  | None -> raise Not_found

let helps_through_models models net c x =
  let compose outer inner =
    match (outer, inner) with
    | `None, _ -> `None
    | _, (Monotone.Constant | Monotone.Unknown) -> `None
    | `Up, Monotone.Increasing | `Down, Monotone.Decreasing -> `Up
    | `Up, Monotone.Decreasing | `Down, Monotone.Increasing -> `Down
  in
  List.filter_map
    (fun arg ->
      if String.equal arg x then
        match Network.helps_direction net c arg with
        | `None -> None
        | (`Up | `Down) as dir -> Some dir
      else
        match List.assoc_opt arg models with
        | Some model when Expr.mentions model x -> (
          let inner =
            try Monotone.direction ~env:(initial_hull_env net) model x
            with Not_found -> Monotone.Unknown
          in
          match compose (Network.helps_direction net c arg) inner with
          | `None -> None
          | (`Up | `Down) as dir -> Some dir)
        | Some _ | None -> None)
    (Constr.args c)

let touches_through_models models c x =
  List.exists
    (fun arg ->
      String.equal arg x
      ||
      match List.assoc_opt arg models with
      | Some model -> Expr.mentions model x
      | None -> false)
    (Constr.args c)

let count dir dirs = List.length (List.filter (( = ) dir) dirs)

(* Every disagreement between the table and the oracle, described. *)
let disagreements models net tbl =
  let cs = Network.constraints net in
  let n = Network.constraint_count net in
  let only cid = Array.init n (fun i -> i = cid) in
  List.concat_map
    (fun x ->
      let pid = Network.prop_id net x in
      let per_pair =
        List.filter_map
          (fun c ->
            let cid = c.Constr.id in
            let touches = touches_through_models models c x in
            let dirs = helps_through_models models net c x in
            let expected =
              if touches then
                (min 1 (count `Up dirs), min 1 (count `Down dirs), 1)
              else (0, 0, 0)
            in
            let got = Influence.repair_votes tbl pid ~violated:(only cid) in
            if
              got <> expected
              || Influence.touches tbl ~cid pid <> touches
              || Influence.motivated tbl pid ~violated:(only cid)
                 <> if touches then [ cid ] else []
            then Some (Printf.sprintf "%s/%s" c.Constr.name x)
            else None)
          cs
      in
      let up, down =
        List.fold_left
          (fun (u, w) c ->
            let dirs = helps_through_models models net c x in
            (u + count `Up dirs, w + count `Down dirs))
          (0, 0) cs
      in
      let reaching =
        List.filter_map
          (fun c ->
            if touches_through_models models c x then Some c.Constr.id else None)
          cs
      in
      per_pair
      @ (if Influence.endpoint_votes tbl pid <> (up, down) then
           [ Printf.sprintf "endpoint votes of %s" x ]
         else [])
      @
      if Array.to_list (Influence.touching tbl pid) <> reaching then
        [ Printf.sprintf "touching list of %s" x ]
      else [])
    (List.filter
       (fun x -> Domain.is_numeric (Network.initial_domain net x))
       (Network.prop_names net))

let agrees models net =
  match disagreements models net (Influence.analyse ~models net) with
  | [] -> true
  | bad ->
    QCheck.Test.fail_reportf "table disagrees with the oracle on %s"
      (String.concat ", " bad)

let network sc = Dpm.network (sc.Scenario.sc_build ~mode:Dpm.Adpm)
let table sc = Compiled.influence (Scenario.compiled sc ~mode:Dpm.Adpm)

(* {2 Built-ins, with and without declared monotonicity} *)

let test_builtins_agree () =
  List.iter
    (fun sc ->
      let net = network sc in
      Alcotest.(check (list string))
        (sc.Scenario.sc_name ^ " agrees with the oracle")
        []
        (disagreements sc.Scenario.sc_models net (table sc)))
    Registry.builtin

let directions =
  [ Monotone.Increasing; Monotone.Decreasing; Monotone.Constant; Monotone.Unknown ]

(* random declarations: (constraint pick, argument pick, direction) *)
let arb_declared =
  QCheck.(
    pair
      (int_bound (List.length Registry.builtin - 1))
      (list_of_size Gen.(int_range 1 12)
         (triple small_nat small_nat (int_bound 3))))

let qcheck_declared =
  QCheck.Test.make ~name:"built-ins with declared monotonicity" ~count:60
    arb_declared (fun (which, decls) ->
      let sc = List.nth Registry.builtin which in
      let net = network sc in
      let cs = Network.constraint_array net in
      List.iter
        (fun (ci, ai, di) ->
          let c = cs.(ci mod Array.length cs) in
          let args = Constr.args c in
          Network.declare_monotone net c.Constr.id
            (List.nth args (ai mod List.length args))
            (List.nth directions di))
        decls;
      agrees sc.Scenario.sc_models net)

(* {2 Generated networks} *)

let gen_spec =
  QCheck.Gen.(
    let topology =
      oneof
        [
          return "ring";
          return "star";
          map (fun p -> Printf.sprintf "random-%g" (float_of_int p /. 10.)) (int_bound 10);
        ]
    in
    map
      (fun ((n, k, seed), (topology, coupling, jitter)) ->
        Printf.sprintf
          "gen:n=%d,k=%d,seed=%d,topology=%s,coupling=%g,jitter=%g" n k seed
          topology
          (float_of_int coupling /. 4.)
          (float_of_int jitter /. 10.))
      (pair
         (triple (int_range 2 8) (int_range 1 4) (int_bound 10_000))
         (triple topology (int_bound 4) (int_bound 9))))

let qcheck_generated =
  QCheck.Test.make ~name:"generated networks" ~count:60
    (QCheck.make ~print:Fun.id gen_spec) (fun spec ->
      let sc = Registry.resolve spec in
      agrees sc.Scenario.sc_models (network sc))

(* {2 Sharing and freshness} *)

let spec = "gen:n=5,k=2,seed=41,topology=random-0.5,coupling=0.5,jitter=0.3"

let test_domains_share_cold_table () =
  let summaries jobs =
    (* a fresh resolution: the table is analysed inside the pool *)
    let sc = Registry.resolve spec in
    let cfg =
      { (Config.default ~mode:Dpm.Adpm ~seed:0) with
        Config.value_policy = Config.Headroom;
        latency = 2 }
    in
    List.map Export.summary_json
      (Engine.run_many ~jobs cfg sc ~seeds:(List.init 12 succ))
  in
  Alcotest.(check (list string))
    "domains at jobs=4 equal jobs=1" (summaries 1) (summaries 4)

let test_one_table_per_resolution () =
  let a = Registry.resolve spec and b = Registry.resolve spec in
  let ta = table a in
  Alcotest.(check bool) "every run of one scenario shares its table" true
    (table a == ta);
  let tb = table b in
  Alcotest.(check bool) "a second resolution analyses afresh" false (ta == tb);
  Alcotest.(check (list string))
    "and agrees with the oracle" []
    (disagreements b.Scenario.sc_models (network b) tb)

(* The compiled table describes the structure it was compiled from, and a
   run's network cannot change that structure; a structural edit is made
   on a fresh elaboration and followed by an explicit re-analysis. *)
let test_structural_change_reanalyses () =
  let sc = Registry.resolve "simple" in
  let late net =
    Network.add_constraint net ~name:"late" (Expr.var "xa1") Constr.Le
      (Expr.const 1.)
  in
  let run_dpm, _ = Engine.prepare (Config.default ~mode:Dpm.Adpm ~seed:1) sc in
  (match late (Dpm.network run_dpm) with
  | (_ : Constr.t) -> Alcotest.fail "a run's shared structure took a constraint"
  | exception Invalid_argument _ -> ());
  let tbl = table sc in
  let dpm = sc.Scenario.sc_build ~mode:Dpm.Adpm in
  let net = Dpm.network dpm in
  let late = late net in
  Dpm.recompile dpm;
  let fresh = Influence.analyse ~models:sc.Scenario.sc_models net in
  Alcotest.(check int) "the compiled table is untouched"
    (Network.constraint_count net - 1)
    (Influence.constraint_count tbl);
  Alcotest.(check (list string))
    "the re-analysis agrees with the oracle" []
    (disagreements sc.Scenario.sc_models net fresh);
  (* a designer reading the re-analysis sees the new violation *)
  Network.set_status net late.Constr.id Constr.Violated;
  let alice =
    Designer.create
      (Config.default ~mode:Dpm.Adpm ~seed:1)
      ~rng:(Adpm_util.Rng.create 1) ~influence:fresh "alice"
  in
  match Designer.choose_operation alice dpm with
  | Some op ->
    Alcotest.(check (list int))
      "the repair is motivated by the added constraint" [ late.Constr.id ]
      op.Operator.op_motivated_by
  | None -> Alcotest.fail "alice idles with a known violation on her parameter"

let suite =
  [
    ("built-ins agree with the oracle", `Quick, test_builtins_agree);
    QCheck_alcotest.to_alcotest qcheck_declared;
    QCheck_alcotest.to_alcotest qcheck_generated;
    ("domains share a cold table", `Quick, test_domains_share_cold_table);
    ("one table per resolution", `Quick, test_one_table_per_resolution);
    ("structural change re-analyses", `Quick, test_structural_change_reanalyses);
  ]
