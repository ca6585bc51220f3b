open Adpm_util
open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_trace
module Mailbox = Adpm_sim.Mailbox

(* A queued NM delivery: the outcome of one executed operation, tagged
   with whether it was this designer's own. *)
type delivery = { dv_own : bool; dv_op : Operator.t; dv_result : Dpm.result }

type t = {
  d_name : string;
  cfg : Config.t;
  rng : Rng.t;
  models : (string * Expr.t) list;
  (* the scenario's static influence table, re-analysed only if the
     network changes structurally under the designer *)
  mutable influence : Influence.t;
  tabu : (string, unit) Hashtbl.t;
  (* last repair direction and step per property, for adaptive delta *)
  repair_memory : (string, [ `Up | `Down ] * float) Hashtbl.t;
  (* violations that motivated repairs and await re-verification *)
  pending_reverify : (int, unit) Hashtbl.t;
  (* most recent own parameter assignment, so conventional-mode
     verifications can attribute freshly discovered violations to it
     (design-history tabu) *)
  mutable last_synthesis : (string * float) option;
  (* consecutive repairs of a parameter that resolved nothing: such
     parameters are demoted so siblings get a chance (design-history
     consultation, ADPM mode where feedback is immediate) *)
  failed_repairs : (string, int) Hashtbl.t;
  (* what this designer believes each constraint's status to be, rebuilt
     from delivered status transitions; consulted instead of the DPM's
     live view only under a nonzero notification latency, where the two
     can disagree (staleness is the phenomenon being modelled) *)
  believed : (int, Constr.status) Hashtbl.t;
  (* queued NM deliveries, drained at the start of the next turn *)
  inbox : delivery Mailbox.t;
}

let create cfg ~rng ~influence name =
  {
    d_name = name;
    cfg;
    rng;
    models = Influence.models influence;
    influence;
    tabu = Hashtbl.create 64;
    repair_memory = Hashtbl.create 16;
    pending_reverify = Hashtbl.create 16;
    last_synthesis = None;
    failed_repairs = Hashtbl.create 16;
    believed = Hashtbl.create 64;
    inbox = Mailbox.create ();
  }

let name d = d.d_name

(* With latency 0 and no fault plan the engine delivers every outcome
   before the next turn, so the DPM's live view and the believed table
   never disagree; using the live view on that path keeps it
   bit-identical to the lockstep engine. Any latency or active fault
   plan makes the two diverge (deliveries lag, vanish, or die with their
   recipient), so decisions must come from the believed table. *)
let delayed_view d =
  d.cfg.Config.latency > 0
  || not (Adpm_fault.Fault.is_none d.cfg.Config.faults)

let believed_status d cid =
  try Hashtbl.find d.believed cid with Not_found -> Constr.Consistent

let learn_statuses d statuses =
  List.iter (fun (cid, s) -> Hashtbl.replace d.believed cid s) statuses

let believed_snapshot d =
  Hashtbl.fold (fun cid s acc -> (cid, s) :: acc) d.believed []
  |> List.sort compare

(* A crashed designer comes back with its working memory gone: believed
   statuses, queued deliveries, repair adaptation, re-verification
   bookkeeping. Only the tabu set survives — the design history lives in
   the shared database (Section 3.1.1), not in the designer's head. *)
let restart d =
  Hashtbl.reset d.believed;
  Hashtbl.reset d.repair_memory;
  Hashtbl.reset d.pending_reverify;
  Hashtbl.reset d.failed_repairs;
  d.last_synthesis <- None;
  ignore (Mailbox.drain d.inbox : delivery list)

let tabu_key prop value = Printf.sprintf "%s@%.9g" prop value

let is_tabu d prop value =
  d.cfg.Config.use_history_tabu && Hashtbl.mem d.tabu (tabu_key prop value)

let is_derived d prop = List.mem_assoc prop d.models

(* f_p: assigned problems that are not Waiting. *)
let addressable_problems d dpm =
  List.filter
    (fun p -> p.Problem.pr_status <> Problem.Waiting)
    (Dpm.problems_owned_by dpm d.d_name)

let numeric_outputs net p =
  List.filter
    (fun o ->
      Network.mem_prop net o
      && Domain.is_numeric (Network.initial_domain net o))
    p.Problem.pr_outputs

(* The influence table for the network as it stands. *)
let influence d dpm =
  let tbl = Influence.refresh d.influence (Dpm.network dpm) in
  d.influence <- tbl;
  tbl

(* What one decision reads, taken once at its start and passed down:
   nothing the designer does while choosing changes any of it. *)
type view = {
  net : Network.t;
  probs : Problem.t list;  (* f_p: the addressable problems *)
  free : string list;
      (* design parameters: numeric outputs the designer assigns directly *)
  derived : string list;  (* numeric outputs a tool model computes *)
  infl : Influence.t;
  violated : bool array;  (* known violations, by constraint id *)
}

let view d dpm probs =
  let net = Dpm.network dpm in
  let outputs =
    List.sort_uniq compare (List.concat_map (numeric_outputs net) probs)
  in
  let derived, free = List.partition (is_derived d) outputs in
  let known =
    if delayed_view d then fun c -> believed_status d c.Constr.id = Constr.Violated
    else fun c -> Dpm.known_violated dpm c.Constr.id
  in
  {
    net;
    probs;
    free;
    derived;
    infl = influence d dpm;
    violated = Array.map known (Network.constraint_array net);
  }

(* Known violations reaching parameter [x] directly or through a model:
   the [motivated_by] list of an operation that moves it. *)
let motivated_for ctx x =
  Influence.motivated ctx.infl (Network.prop_id ctx.net x) ~violated:ctx.violated

(* {2 Tool emulation}

   Recompute every derived output whose model inputs are available, to a
   fixpoint (models may reference other derived properties). [extra]
   overrides the network's current assignment of one property; values
   are looked up lazily: computed, then the override, then the network. *)
let recompute_derived d ctx extra =
  let net = ctx.net in
  let targets = ctx.derived in
  (* a handful of outputs per designer: an association list *)
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
          let model = List.assoc prop d.models in
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

let problem_of_output ctx prop =
  List.find_opt (fun p -> List.mem prop (numeric_outputs ctx.net p)) ctx.probs

let synthesis_op d ctx ?(motivated_by = []) prop v =
  match problem_of_output ctx prop with
  | None -> None
  | Some p ->
    let derived = recompute_derived d ctx (Some (prop, v)) in
    Some
      (Operator.synthesis ~motivated_by ~designer:d.d_name
         ~problem:p.Problem.pr_id
         ((prop, Value.Num v) :: derived))

(* {2 Value selection helpers} *)

let clamp iv x = Float.min (Interval.hi iv) (Float.max (Interval.lo iv) x)

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

let random_in_domain d dom =
  match dom with
  | Domain.Empty | Domain.Symbolic _ -> None
  | Domain.Continuous iv ->
    if Interval.is_bounded iv then
      Some (Rng.float_range d.rng (Interval.lo iv) (Interval.hi iv))
    else Some (Interval.midpoint iv)
  | Domain.Finite arr -> Some (Rng.pick_array d.rng arr)

(* Choose a value from a non-empty domain, preferring the quantile the
   direction votes suggest; repeated failed repairs escalate the choice
   toward the window's corner (the fix may only exist at the margin). *)
let pick_from_domain d prop dom direction =
  let fatigue =
    float_of_int (try Hashtbl.find d.failed_repairs prop with Not_found -> 0)
  in
  let push = Float.min 0.25 (0.08 *. fatigue) in
  let q =
    match direction with
    | `Up -> 0.75 +. push
    | `Down -> 0.25 -. push
    | `None -> 0.5
  in
  match quantile_of_domain dom q with
  | None -> None
  | Some v -> if is_tabu d prop v then None else Some v

(* The feasible-endpoint choice of f_v for forward synthesis: the top or
   bottom value according to which direction helps satisfy the most
   connected constraints (counting model-mediated connections). *)
let endpoint_from_votes d ctx prop dom =
  let up, down =
    if not d.cfg.Config.use_monotone_hints then (0, 0)
    else Influence.endpoint_votes ctx.infl (Network.prop_id ctx.net prop)
  in
  (* top or bottom of the feasible window per the votes, pulled slightly
     inside (with a little designer-to-designer jitter) so a boundary
     choice does not immediately pinch the margins of the other designers'
     windows *)
  let jitter = Rng.float d.rng 0.1 in
  let choice =
    if up > down then quantile_of_domain dom (0.75 +. jitter)
    else if down > up then quantile_of_domain dom (0.15 +. jitter)
    else quantile_of_domain dom (0.45 +. jitter)
  in
  match choice with
  | Some v when not (is_tabu d prop v) -> Some v
  | Some _ -> random_in_domain d dom
  | None -> None

(* The headroom-seeking f_v variant (the adaptability option): among
   candidate quantiles of the feasible window, pick the one maximizing
   log(min normalized headroom) over the connected constraints — keep
   every constraint comfortably away from its limit so a later
   requirement shift has margin to land in. Unbound teammate parameters
   are assumed at the middle of their feasible windows; each constraint
   check is charged as one tool evaluation. *)
let headroom_from_votes d dpm ctx prop dom =
  let net = ctx.net in
  let connected = Influence.touching ctx.infl (Network.prop_id net prop) in
  if connected = [||] then None
  else begin
    let candidates =
      List.filter
        (fun v -> not (is_tabu d prop v))
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
    (* a property the candidate does not set reads the same value for
       every candidate: its assignment, else the middle of its window *)
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
      let derived = recompute_derived d ctx (Some (prop, x)) in
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
      | Some s ->
        (* log of the worst headroom; an already-violated candidate ranks
           strictly below every positive-margin one, more-negative worse *)
        Some (if s > 0. then Float.log s else -1e18 +. s)
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
    Dpm.charge_evaluations dpm !evals;
    Option.map fst best
  end

(* Delta move for repairs (f_v's "choose from initial subspace" branch):
   exponential search while the direction persists, bisection on flip. *)
let delta_move d dpm prop direction =
  let net = Dpm.network dpm in
  let initial = Network.initial_domain net prop in
  match Domain.hull initial with
  | None -> None
  | Some hull ->
    let width = if Interval.is_bounded hull then Interval.width hull else 1.0 in
    let base_step = width /. d.cfg.Config.delta_divisor in
    let step =
      if d.cfg.Config.adaptive_delta then
        match Hashtbl.find_opt d.repair_memory prop with
        | Some (last_dir, last_step) when last_dir = direction ->
          Float.min (last_step *. 2.) (width /. 2.)
        | Some (_, last_step) -> Float.max (last_step /. 2.) (base_step /. 16.)
        | None -> base_step
      else base_step
    in
    Hashtbl.replace d.repair_memory prop (direction, step);
    let cur =
      match Network.assigned_num net prop with
      | Some v -> v
      | None -> Interval.midpoint hull
    in
    let signed s = match direction with `Up -> s | `Down -> -.s in
    let snap v =
      match initial with
      | Domain.Finite arr ->
        let beyond =
          Array.to_list arr
          |> List.filter (fun x ->
                 match direction with `Up -> x > cur | `Down -> x < cur)
        in
        (match (direction, beyond) with
        | `Up, x :: _ -> x
        | `Down, _ :: _ -> List.nth beyond (List.length beyond - 1)
        | _, [] -> v)
      | Domain.Continuous _ | Domain.Empty | Domain.Symbolic _ -> v
    in
    let discrete = match initial with Domain.Finite _ -> true | _ -> false in
    let rec attempt step tries =
      let candidate = snap (clamp hull (cur +. signed step)) in
      if candidate = cur then None (* saturated at a range bound *)
      else if
        (* pinned against a bound: the residual move is too small to fix
           anything and would starve better repair candidates *)
        (not discrete)
        && Float.abs (candidate -. cur) < base_step /. 8.
      then None
      else if is_tabu d prop candidate && tries < 6 then
        attempt (step *. 2.) (tries + 1)
      else if is_tabu d prop candidate then None
      else Some candidate
    in
    attempt step 0

(* {2 Operation construction} *)

(* Conventional mode: request verification of every eligible constraint of
   one owned problem (one tool-run batch; Section 3.1.2: verification
   operators run when a subsystem is complete). *)
let verification_op d dpm probs =
  match Dpm.mode dpm with
  | Dpm.Adpm -> None
  | Dpm.Conventional -> (
    let eligible = Dpm.eligible_verifications dpm ~designer:d.d_name in
    match eligible with
    | [] -> None
    | _ ->
      let candidates =
        List.filter_map
          (fun p ->
            let cids =
              List.filter (fun c -> List.mem c eligible) p.Problem.pr_constraints
            in
            match cids with [] -> None | _ -> Some (p, cids))
          probs
      in
      (match candidates with
      | [] -> None
      | _ ->
        let p, cids = Rng.pick d.rng candidates in
        let motivated_by =
          List.filter (fun cid -> Hashtbl.mem d.pending_reverify cid) cids
        in
        Some
          (Operator.verification ~motivated_by ~designer:d.d_name
             ~problem:p.Problem.pr_id cids)))

(* Repair: f_a picks the parameter whose single directed move is likely to
   fix the most known violations; f_v picks its new value. *)
let repair_op d dpm ctx =
  let votes =
    List.map
      (fun x ->
        ( x,
          Influence.repair_votes ctx.infl (Network.prop_id ctx.net x)
            ~violated:ctx.violated ))
      ctx.free
  in
  let candidates = List.filter (fun (_, (_, _, a)) -> a > 0) votes in
  match candidates with
  | [] -> None
  | _ ->
    let score (prop, (up, down, alpha)) =
      if d.cfg.Config.use_alpha_repair then begin
        (* primary: violations fixable by one directed move, discounted
           when other violations pull the opposite way and when recent
           repairs of this parameter resolved nothing; secondary: alpha *)
        let fixable =
          if d.cfg.Config.use_monotone_hints then
            float_of_int (max up down) -. (0.5 *. float_of_int (min up down))
          else 0.
        in
        let fatigue =
          float_of_int
            (try Hashtbl.find d.failed_repairs prop with Not_found -> 0)
        in
        -.(fixable -. fatigue +. (float_of_int alpha /. 1000.))
      end
      else Rng.float d.rng 1.0
    in
    let ranked =
      List.sort (fun a b -> compare (score a) (score b))
        (Rng.shuffle d.rng candidates)
    in
    let direction_for (up, down) =
      if not d.cfg.Config.use_monotone_hints then
        if Rng.bool d.rng then `Up else `Down
      else if up > down then `Up
      else if down > up then `Down
      else if Rng.bool d.rng then `Up
      else `Down
    in
    let repair_value prop direction =
      let net = Dpm.network dpm in
      let current = Network.assigned_num net prop in
      let differs = function
        | Some v when current <> Some v -> Some v
        | Some _ | None -> None
      in
      match Dpm.mode dpm with
      | Dpm.Adpm when d.cfg.Config.use_relaxed_feasible -> (
        (* constraint-margin window for the parameter, letting its
           dependent performance properties move with it *)
        let unpin =
          List.filter
            (fun p -> Expr.mentions (List.assoc p d.models) prop)
            ctx.derived
        in
        let dom = Dpm.relaxed_feasible_group dpm ~target:prop ~unpin in
        match differs (pick_from_domain d prop dom direction) with
        | Some v when not (is_tabu d prop v) -> Some v
        | Some _ | None -> (
          match differs (random_in_domain d dom) with
          | Some v -> Some v
          | None -> delta_move d dpm prop direction))
      | Dpm.Adpm | Dpm.Conventional -> delta_move d dpm prop direction
    in
    (* escape of last resort: every candidate is tabu-locked or saturated —
       restart one of them at a fresh random value inside E_i *)
    let random_restart () =
      let net = Dpm.network dpm in
      let viable =
        List.filter_map
          (fun (prop, _) ->
            let current = Network.assigned_num net prop in
            let rec draw tries =
              if tries = 0 then None
              else
                match random_in_domain d (Network.initial_domain net prop) with
                | Some v when current <> Some v && not (is_tabu d prop v) ->
                  Some (prop, v)
                | Some _ | None -> draw (tries - 1)
            in
            draw 8)
          ranked
      in
      match viable with [] -> None | _ -> Some (Rng.pick d.rng viable)
    in
    let rec try_candidates = function
      | [] -> (
        match random_restart () with
        | None -> None
        | Some (prop, v) ->
          synthesis_op d ctx ~motivated_by:(motivated_for ctx prop) prop v)
      | (prop, (up, down, _)) :: rest -> (
        let direction = direction_for (up, down) in
        match repair_value prop direction with
        | None -> try_candidates rest
        | Some v ->
          synthesis_op d ctx ~motivated_by:(motivated_for ctx prop) prop v)
    in
    try_candidates ranked

(* Forward progress: f_a picks the unbound parameter with the smallest
   feasible subspace (ADPM) or a random one (conventional); f_v picks the
   value. *)
let forward_op d dpm ctx =
  let net = ctx.net in
  let unbound = List.filter (fun p -> not (Network.is_bound net p)) ctx.free in
  match unbound with
  | [] -> (
    (* all parameters placed: run the tool once more if some performance
       property is still uncomputed *)
    let stale = recompute_derived d ctx None in
    let pending =
      List.filter
        (fun (prop, _) -> not (Network.is_bound net prop))
        stale
    in
    match pending with
    | [] -> None
    | (prop, _) :: _ -> (
      match problem_of_output ctx prop with
      | None -> None
      | Some p ->
        Some
          (Operator.synthesis ~designer:d.d_name ~problem:p.Problem.pr_id stale)))
  | _ ->
    let pick_by score =
      match
        List.sort (fun a b -> compare (score a) (score b))
          (Rng.shuffle d.rng unbound)
      with
      | [] -> None
      | x :: _ -> Some x
    in
    let target =
      match (d.cfg.Config.forward_ordering, Dpm.mode dpm) with
      | Config.Smallest_subspace, Dpm.Adpm ->
        pick_by (fun prop ->
            let p = Network.find_prop net prop in
            Domain.relative_measure ~initial:p.Network.p_initial
              p.Network.p_feasible)
      | Config.Most_constrained, (Dpm.Adpm | Dpm.Conventional) ->
        (* constraint membership is static knowledge, available either way;
           count model-mediated membership too (the 2.3.2 extension) *)
        pick_by (fun prop ->
            -.float_of_int
                (Influence.reach_count ctx.infl (Network.prop_id net prop)))
      | (Config.Smallest_subspace | Config.Random_target), _ ->
        Some (Rng.pick d.rng unbound)
    in
    (match target with
    | None -> None
    | Some prop ->
      let value =
        match Dpm.mode dpm with
        | Dpm.Adpm -> (
          let feasible = Network.feasible net prop in
          if Domain.is_empty feasible then
            (* v_F = empty: choose from the initial range *)
            random_in_domain d (Network.initial_domain net prop)
          else
            let vote =
              match d.cfg.Config.value_policy with
              | Config.Endpoint -> endpoint_from_votes d ctx prop feasible
              | Config.Headroom -> (
                match headroom_from_votes d dpm ctx prop feasible with
                | Some v -> Some v
                | None -> endpoint_from_votes d ctx prop feasible)
            in
            match vote with
            | Some v -> Some v
            | None -> random_in_domain d (Network.initial_domain net prop))
        | Dpm.Conventional ->
          (* no feasibility information: an engineering guess from the
             middle half of the initial range *)
          quantile_of_domain
            (Network.initial_domain net prop)
            (0.25 +. Rng.float d.rng 0.5)
      in
      (match value with
      | None -> None
      | Some v -> synthesis_op d ctx prop v))

(* Which of f_a's orderings actually drives forward target selection for
   this configuration and mode (the fallbacks in [forward_op]). *)
let forward_heuristic d dpm =
  match (d.cfg.Config.forward_ordering, Dpm.mode dpm) with
  | Config.Smallest_subspace, Dpm.Adpm -> Event.Smallest_subspace
  | Config.Most_constrained, (Dpm.Adpm | Dpm.Conventional) ->
    Event.Most_constrained
  | (Config.Smallest_subspace | Config.Random_target), _ -> Event.Random_target

let trace_decision d dpm heuristic op =
  let tr = Dpm.tracer dpm in
  if Tracer.active tr then begin
    let target =
      match op.Operator.op_kind with
      | Operator.Synthesis ((prop, _) :: _) -> Some prop
      | Operator.Synthesis [] | Operator.Verification _
      | Operator.Decompose _ ->
        None
    in
    let net = Dpm.network dpm in
    let alpha, beta =
      match target with
      | Some prop when Network.mem_prop net prop ->
        (Network.alpha net prop, Network.beta net prop)
      | Some _ | None -> (0, 0)
    in
    Tracer.emit tr
      (Event.Designer_decision
         { designer = d.d_name; heuristic; target; alpha; beta })
  end

let choose_operation d dpm =
  let probs = addressable_problems d dpm in
  match probs with
  | [] -> None
  | _ -> (
    let ctx = view d dpm probs in
    let chosen =
      if Array.exists Fun.id ctx.violated then
        match repair_op d dpm ctx with
        | Some op -> Some (Event.Conflict_resolution, op)
        | None -> (
          match verification_op d dpm probs with
          | Some op -> Some (Event.Verification_request, op)
          | None ->
            Option.map
              (fun op -> (forward_heuristic d dpm, op))
              (forward_op d dpm ctx))
      else
        match forward_op d dpm ctx with
        | Some op -> Some (forward_heuristic d dpm, op)
        | None ->
          Option.map
            (fun op -> (Event.Verification_request, op))
            (verification_op d dpm probs)
    in
    match chosen with
    | None -> None
    | Some (heuristic, op) ->
      trace_decision d dpm heuristic op;
      Some op)

let synthesis_with_tools d dpm prop v =
  let ctx = view d dpm (addressable_problems d dpm) in
  let motivated_by =
    if Network.mem_prop ctx.net prop then motivated_for ctx prop else []
  in
  synthesis_op d ctx ~motivated_by prop v

let request_verification d dpm =
  verification_op d dpm (addressable_problems d dpm)

let observe d dpm ~own op result =
  (* Every delivered outcome updates the believed constraint statuses —
     this is the knowledge the NM pushes. [r_status_changes] includes the
     conventional-mode freshness decays (Violated fading back to
     Consistent) that the violated/resolved lists omit. *)
  List.iter
    (fun (cid, _old, status) -> Hashtbl.replace d.believed cid status)
    result.Dpm.r_status_changes;
  match op.Operator.op_kind with
  | Operator.Synthesis assignments when own ->
    if result.Dpm.r_newly_violated <> [] && d.cfg.Config.use_history_tabu then
      List.iter
        (fun (prop, value) ->
          match value with
          | Value.Num v when not (is_derived d prop) ->
            Hashtbl.replace d.tabu (tabu_key prop v) ()
          | Value.Num _ | Value.Sym _ -> ())
        assignments;
    (match assignments with
    | (prop, Value.Num v) :: _ when not (is_derived d prop) ->
      d.last_synthesis <- Some (prop, v);
      (* ADPM feedback is immediate: a repair that resolved nothing tires
         out its parameter; one that helped restores it *)
      if Dpm.mode dpm = Dpm.Adpm && op.Operator.op_motivated_by <> [] then begin
        if result.Dpm.r_resolved = [] then begin
          let n = try Hashtbl.find d.failed_repairs prop with Not_found -> 0 in
          Hashtbl.replace d.failed_repairs prop (n + 1)
        end
        else Hashtbl.reset d.failed_repairs
      end
    | _ -> d.last_synthesis <- None);
    (* repairs await re-verification before the fix is trusted *)
    List.iter
      (fun cid -> Hashtbl.replace d.pending_reverify cid ())
      op.Operator.op_motivated_by
  | Operator.Verification cids ->
    (* Verification results — whoever ran them, including the leader's
       integration checks — are how conventional mode discovers damage.
       Attribute fresh violations touching my last assignment to it (the
       design-history consultation, Section 3.1.1 footnote). *)
    let touches_last prop =
      result.Dpm.r_newly_violated <> []
      &&
      let infl = influence d dpm in
      let pid = Network.prop_id (Dpm.network dpm) prop in
      List.exists
        (fun cid -> Influence.touches infl ~cid pid)
        result.Dpm.r_newly_violated
    in
    (if d.cfg.Config.use_history_tabu then
       match d.last_synthesis with
       | Some (prop, v) when touches_last prop ->
         Hashtbl.replace d.tabu (tabu_key prop v) ()
       | Some _ | None -> ());
    (* repair fatigue, conventional flavour: a verification that re-finds a
       violation my repairs were supposed to fix — or surfaces a new one on
       the parameter I just moved — tires out that parameter; a resolution
       restores everyone *)
    (match d.last_synthesis with
    | Some (prop, _) ->
      let refound =
        List.exists
          (fun cid -> Hashtbl.mem d.pending_reverify cid)
          result.Dpm.r_newly_violated
      in
      if refound || touches_last prop then begin
        let n = try Hashtbl.find d.failed_repairs prop with Not_found -> 0 in
        Hashtbl.replace d.failed_repairs prop (n + 1)
      end
      else if result.Dpm.r_resolved <> [] then Hashtbl.reset d.failed_repairs
    | None -> ());
    List.iter (fun cid -> Hashtbl.remove d.pending_reverify cid) cids
  | Operator.Synthesis _ | Operator.Decompose _ -> ()

(* {2 Mailbox} *)

let deliver d ~own op result =
  Mailbox.push d.inbox { dv_own = own; dv_op = op; dv_result = result }

let drain d dpm =
  let pending = Mailbox.drain d.inbox in
  List.iter
    (fun { dv_own; dv_op; dv_result } -> observe d dpm ~own:dv_own dv_op dv_result)
    pending;
  List.length pending
