(* The string-keyed decision helpers that the dense designer replaced,
   kept as its test oracle: a tool run evaluates the models with
   [Expr.eval_opt] over association lists and name lookups, headroom
   scoring evaluates every connected constraint's sides the same way
   over a [Hashtbl] of settled values, and the tabu set is a table of
   [prop@%.9g] keys. The properties in [Test_designer] tie production to
   these definitions. *)

open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_teamsim

let tabu_key prop value = Printf.sprintf "%s@%.9g" prop value

let numeric_outputs net p =
  List.filter
    (fun o ->
      Network.mem_prop net o
      && Domain.is_numeric (Network.initial_domain net o))
    p.Problem.pr_outputs

(* f_p and the designer's outputs: (design parameters, tool outputs) *)
let addressable dpm designer =
  List.filter
    (fun p ->
      String.equal p.Problem.pr_owner designer
      && p.Problem.pr_status <> Problem.Waiting)
    (Dpm.problems dpm)

let outputs ~models net probs =
  let outputs =
    List.sort_uniq compare (List.concat_map (numeric_outputs net) probs)
  in
  let derived, free = List.partition (fun o -> List.mem_assoc o models) outputs in
  (free, derived)

(* Recompute every derived output whose model inputs are available, to a
   fixpoint (models may reference other derived properties). [extra]
   overrides the network's current assignment of one property; values
   are looked up lazily: computed, then the override, then the network. *)
let recompute_derived ~models net ~targets extra =
  let computed = ref [] in
  let lookup name =
    match List.assoc_opt name !computed with
    | Some x -> Some x
    | None -> (
      match extra with
      | Some (prop, x) when String.equal prop name -> Some x
      | Some _ | None -> (
        match Network.assigned_num net name with
        | x -> x
        | exception Invalid_argument _ -> None))
  in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun prop ->
        if not (List.mem_assoc prop !computed) then begin
          let model = List.assoc prop models in
          match Expr.eval_opt lookup model with
          | Some raw when Float.is_finite raw ->
            (* the tool's output is clamped to the property's legal range *)
            let value =
              match Domain.hull (Network.initial_domain net prop) with
              | Some hull ->
                Float.min (Interval.hi hull) (Float.max (Interval.lo hull) raw)
              | None -> raw
            in
            computed := (prop, value) :: !computed;
            progress := true
          | Some _ | None -> ()
        end)
      targets
  done;
  List.filter_map
    (fun prop ->
      match List.assoc_opt prop !computed with
      | Some v when Network.assigned_num net prop <> Some v ->
        Some (prop, Value.Num v)
      | Some _ | None -> None)
    targets

let quantile_of_domain dom q =
  match dom with
  | Domain.Empty | Domain.Symbolic _ -> None
  | Domain.Continuous iv ->
    if Interval.is_bounded iv then
      Some (Interval.lo iv +. (q *. Interval.width iv))
    else Some (Interval.midpoint iv)
  | Domain.Finite arr ->
    let n = Array.length arr in
    let i = int_of_float (q *. float_of_int (n - 1)) in
    Some arr.(max 0 (min (n - 1) i))

(* The headroom policy's choice for [prop] from [dom], and the constraint
   evaluations it charges. *)
let headroom ~models net ~targets ~infl ~is_tabu prop dom =
  let connected = Influence.touching infl (Network.prop_id net prop) in
  if connected = [||] then (None, 0)
  else begin
    let candidates =
      List.filter
        (fun v -> not (is_tabu prop v))
        (List.sort_uniq compare
           (List.filter_map (quantile_of_domain dom)
              [ 0.1; 0.3; 0.5; 0.7; 0.9 ]))
    in
    let evals = ref 0 in
    let midpoint name =
      match Domain.hull (Network.feasible net name) with
      | Some iv when Interval.is_bounded iv -> Some (Interval.midpoint iv)
      | _ -> (
        match Domain.hull (Network.initial_domain net name) with
        | Some iv when Interval.is_bounded iv -> Some (Interval.midpoint iv)
        | _ -> None)
    in
    let settled : (string, float option) Hashtbl.t = Hashtbl.create 16 in
    let settled_value name =
      match Hashtbl.find_opt settled name with
      | Some v -> v
      | None ->
        let v =
          match Network.assigned_num net name with
          | Some x -> Some x
          | None -> midpoint name
        in
        Hashtbl.add settled name v;
        v
    in
    let all = Network.constraint_array net in
    let score x =
      let derived = recompute_derived ~models net ~targets (Some (prop, x)) in
      let lookup name =
        if String.equal name prop then Some x
        else
          match List.assoc_opt name derived with
          | Some (Value.Num x) -> Some x
          | Some (Value.Sym _) | None -> settled_value name
      in
      let worst =
        Array.fold_left
          (fun acc cid ->
            let c = all.(cid) in
            incr evals;
            match
              ( Expr.eval_opt lookup c.Constr.lhs,
                Expr.eval_opt lookup c.Constr.rhs )
            with
            | Some l, Some r when Float.is_finite l && Float.is_finite r ->
              let raw =
                match c.Constr.rel with
                | Constr.Le -> r -. l
                | Constr.Ge -> l -. r
                | Constr.Eq -> -.Float.abs (l -. r)
              in
              let headroom = raw /. (1. +. Float.abs r) in
              Some (match acc with None -> headroom | Some a -> Float.min a headroom)
            | _ -> acc)
          None connected
      in
      match worst with
      | None -> None
      | Some s -> Some (if s > 0. then Float.log s else -1e18 +. s)
    in
    let best =
      List.fold_left
        (fun acc x ->
          match score x with
          | None -> acc
          | Some s -> (
            match acc with
            | Some (_, best_s) when best_s >= s -> acc
            | _ -> Some (x, s)))
        None candidates
    in
    (Option.map fst best, !evals)
  end
