open Adpm_util
open Adpm_interval
open Adpm_expr
open Adpm_csp
open Adpm_core
open Adpm_trace

(* A queued NM delivery: the outcome of one executed operation, tagged
   with whether it was this designer's own. *)
type delivery = { dv_own : bool; dv_op : Operator.t; dv_result : Dpm.result }

(* What a decision reads of the design's structure: the addressable
   problems and their numeric outputs. It changes only when a problem
   enters or leaves [Waiting] or a problem is registered, so it is kept
   until one of those happens. *)
type view = {
  v_owned : Problem.t array;  (* [Dpm.owned_problems], physically *)
  v_open : bool array;  (* which of them were addressable *)
  outputs : (Problem.t * int array) list;
      (* f_p: the addressable problems, with their numeric outputs *)
  free : int list;
      (* design parameters: numeric outputs the designer assigns directly,
         by prop id in name order ([Rng.shuffle] consumes the list, so the
         order is part of every draw) *)
  derived : int array;  (* numeric outputs a tool model computes, name order *)
}

(* Float scratch for evaluating point programs, by prop id except the
   stack. Owned by one designer: the programs themselves are shared.
   [vals] holds a tool output of the current pass where [stamp] is
   [pass] (> 0), and a headroom read that does not depend on the
   candidate where it is [-spass] (< 0); the two never hold for one
   property at once when they are read. *)
type scratch = {
  env : float array;  (* the inputs of the program about to run *)
  stack : float array;
  vals : float array;
  stamp : int array;
  mutable pass : int;
  mutable spass : int;
  mutable ovr_pid : int;  (* the tool run's assigned parameter, or -1 *)
  ovr : float array;  (* ... and its value, in slot 0 *)
  mutable violated : bool array;  (* by constraint id: known violations *)
}

type t = {
  d_name : string;
  cfg : Config.t;
  rng : Rng.t;
  (* the scenario's static influence table *)
  influence : Influence.t;
  tabu : Tabu.t;
  (* by prop id, allocated at the first repair: last repair direction
     (0 none, 1 up, 2 down) and step, for adaptive delta; consecutive
     repairs of a parameter that resolved nothing (fatigue): such
     parameters are demoted so siblings get a chance (design-history
     consultation) *)
  mutable repair_dir : int array;
  mutable repair_step : float array;
  mutable fatigue : int array;
  (* by constraint id: what this designer believes each constraint's
     status to be, rebuilt from delivered status transitions; consulted
     instead of the DPM's live view only under a nonzero notification
     latency, where the two can disagree (staleness is the phenomenon
     being modelled). One byte each: 0 where nothing was learned. *)
  believed : Bytes.t;
  (* by constraint id, 1 where a violation motivated a repair and awaits
     re-verification *)
  pending : Bytes.t;
  (* most recent own parameter assignment (prop id, value), so
     conventional-mode verifications can attribute freshly discovered
     violations to it (design-history tabu) *)
  mutable last_synthesis : (int * float) option;
  s : scratch;
  mutable cached : view option;
  (* queued NM deliveries, drained at the start of the next turn *)
  inbox : delivery Queue.t;
}

(* every by-id array is sized for the table's network *)
let create cfg ~rng ~influence name =
  let np = Influence.prop_count influence
  and nc = Influence.constraint_count influence in
  {
    d_name = name;
    cfg;
    rng;
    influence;
    tabu = Tabu.create ();
    repair_dir = [||];
    repair_step = [||];
    fatigue = [||];
    believed = Bytes.make nc '\000';
    pending = Bytes.make nc '\000';
    last_synthesis = None;
    s =
      {
        env = Array.make np 0.;
        stack = Array.make (Point.max_nodes (Influence.programs influence)) 0.;
        vals = Array.make np 0.;
        stamp = Array.make np 0;
        pass = 0;
        spass = 0;
        ovr_pid = -1;
        ovr = [| 0. |];
        violated = [||];
      };
    cached = None;
    inbox = Queue.create ();
  }

(* the repair memory exists once a repair happened *)
let repair_memory d =
  if Array.length d.fatigue = 0 then begin
    let np = Influence.prop_count d.influence in
    d.repair_dir <- Array.make np 0;
    d.repair_step <- Array.make np 0.;
    d.fatigue <- Array.make np 0
  end

let fatigue d pid = if pid < Array.length d.fatigue then d.fatigue.(pid) else 0

let name d = d.d_name

(* With latency 0 and no fault plan the engine delivers every outcome
   before the next turn, so the DPM's live view and the believed table
   never disagree; using the live view on that path keeps it
   bit-identical to a lockstep loop that broadcasts each outcome at once
   (test/test_golden.ml pins that equivalence). Any latency or active
   fault plan makes the two diverge (deliveries lag, vanish, or die with
   their recipient), so decisions must come from the believed table. *)
let delayed_view d =
  d.cfg.Config.latency > 0
  || not (Adpm_fault.Fault.is_none d.cfg.Config.faults)

let status_code = function
  | Constr.Consistent -> '\001'
  | Constr.Satisfied -> '\002'
  | Constr.Violated -> '\003'

let believed d cid =
  match Bytes.get d.believed cid with
  | '\002' -> Some Constr.Satisfied
  | '\003' -> Some Constr.Violated
  | '\001' -> Some Constr.Consistent
  | _ -> None

let believe d cid s = Bytes.set d.believed cid (status_code s)

let learn_statuses d statuses = List.iter (fun (cid, s) -> believe d cid s) statuses

let believed_snapshot d =
  let acc = ref [] in
  for cid = Bytes.length d.believed - 1 downto 0 do
    Option.iter (fun s -> acc := (cid, s) :: !acc) (believed d cid)
  done;
  !acc

let pending d cid = Bytes.get d.pending cid <> '\000'
let set_pending d cid v = Bytes.set d.pending cid (if v then '\001' else '\000')

(* A crashed designer comes back with its working memory gone: believed
   statuses, queued deliveries, repair adaptation, re-verification
   bookkeeping. Only the tabu set survives — the design history lives in
   the shared database (Section 3.1.1), not in the designer's head. *)
let restart d =
  Bytes.fill d.believed 0 (Bytes.length d.believed) '\000';
  Bytes.fill d.pending 0 (Bytes.length d.pending) '\000';
  Array.fill d.repair_dir 0 (Array.length d.repair_dir) 0;
  Array.fill d.fatigue 0 (Array.length d.fatigue) 0;
  d.last_synthesis <- None;
  Queue.clear d.inbox

let is_tabu d pid value =
  d.cfg.Config.use_history_tabu && Tabu.mem d.tabu pid value

let prop_name net pid = (Network.prop_by_id net pid).Network.p_name

let assigned_num net pid =
  match Network.assigned_id net pid with
  | Some (Value.Num x) -> Some x
  | Some (Value.Sym _) | None -> None

let is_bound net pid = Network.assigned_id net pid <> None

let build_view infl net owned =
  let v_open = Array.map (fun p -> p.Problem.pr_status <> Problem.Waiting) owned in
  let numeric_outputs p =
    Array.of_list
      (List.filter_map
         (fun o ->
           if Network.mem_prop net o then
             let prop = Network.find_prop net o in
             if Domain.is_numeric prop.Network.p_initial then Some prop.Network.p_id
             else None
           else None)
         p.Problem.pr_outputs)
  in
  let outputs =
    List.filter_map
      (fun (p, addressable) -> if addressable then Some (p, numeric_outputs p) else None)
      (List.combine (Array.to_list owned) (Array.to_list v_open))
  in
  let names =
    List.concat_map (fun (_, pids) -> List.map (prop_name net) (Array.to_list pids)) outputs
  in
  let derived, free =
    List.partition (Influence.is_derived infl)
      (List.map (Network.prop_id net) (List.sort_uniq String.compare names))
  in
  {
    v_owned = owned;
    v_open;
    outputs;
    free;
    derived = Array.of_list derived;
  }

let still_fits v owned =
  v.v_owned == owned
  &&
  let rec same i =
    i >= Array.length owned
    || (owned.(i).Problem.pr_status <> Problem.Waiting) = v.v_open.(i)
       && same (i + 1)
  in
  same 0

(* What one decision reads, taken once at its start and passed down:
   nothing the designer does while choosing changes any of it. *)
type ctx = { net : Network.t; infl : Influence.t; view : view }

let context d dpm =
  let net = Dpm.network dpm in
  let infl = d.influence in
  let owned = Dpm.owned_problems dpm d.d_name in
  let view =
    match d.cached with
    | Some v when still_fits v owned -> v
    | Some _ | None ->
      let v = build_view infl net owned in
      d.cached <- Some v;
      v
  in
  { net; infl; view }

(* Refill the known violations, by constraint id; true if there is one. *)
let load_violated d dpm ctx =
  let n = Network.constraint_count ctx.net in
  if Array.length d.s.violated <> n then d.s.violated <- Array.make n false;
  let violated = d.s.violated and delayed = delayed_view d and any = ref false in
  for cid = 0 to n - 1 do
    let v =
      if delayed then
        Bytes.get d.believed cid = status_code Constr.Violated
      else Dpm.known_violated dpm cid
    in
    violated.(cid) <- v;
    if v then any := true
  done;
  !any

(* Known violations reaching parameter [pid] directly or through a model:
   the [motivated_by] list of an operation that moves it. *)
let motivated_for d ctx pid = Influence.motivated ctx.infl pid ~violated:d.s.violated

(* {2 Tool emulation}

   A tool run recomputes every derived output whose model inputs are
   available, to a fixpoint (models may reference other derived
   properties), in name order, sweep after sweep. An input reads this
   run's output if there is one, then the parameter being assigned
   ([ovr_pid]), then the network's assignment. *)
let load_tool s net progs i =
  let rec go k =
    k >= Point.vars_to progs i
    ||
    let v = Point.var progs k in
    v >= 0
    && (if s.stamp.(v) = s.pass then begin
          s.env.(v) <- s.vals.(v);
          true
        end
        else if v = s.ovr_pid then begin
          s.env.(v) <- s.ovr.(0);
          true
        end
        else
          match Network.assigned_id net v with
          | Some (Value.Num x) ->
            s.env.(v) <- x;
            true
          | Some (Value.Sym _) | None -> false)
    && go (k + 1)
  in
  go (Point.vars_from progs i)

let run_tool d ctx ~ovr_pid x =
  let s = d.s and targets = ctx.view.derived in
  let progs = Influence.programs ctx.infl in
  s.ovr_pid <- ovr_pid;
  s.ovr.(0) <- x;
  s.pass <- s.pass + 1;
  let progress = ref true in
  while !progress do
    progress := false;
    for j = 0 to Array.length targets - 1 do
      let q = targets.(j) in
      if s.stamp.(q) <> s.pass then begin
        let i = Influence.model ctx.infl q in
        if load_tool s ctx.net progs i then begin
          let raw = Point.eval progs i ~env:s.env ~stack:s.stack in
          if Float.is_finite raw then begin
            s.vals.(q) <- Influence.clamp ctx.infl q raw;
            s.stamp.(q) <- s.pass;
            progress := true
          end
        end
      end
    done
  done

(* the run computed an output that differs from the network's value *)
let changed s net q =
  s.stamp.(q) = s.pass
  &&
  match Network.assigned_id net q with
  | Some (Value.Num x) -> x <> s.vals.(q)
  | Some (Value.Sym _) | None -> true

(* the last run's changed outputs, name order: the tool's assignments *)
let tool_outputs d ctx =
  Array.fold_right
    (fun q acc ->
      if changed d.s ctx.net q then (prop_name ctx.net q, Value.Num d.s.vals.(q)) :: acc
      else acc)
    ctx.view.derived []

(* the first addressable problem with the property among its outputs *)
let problem_of_output ctx pid =
  List.find_map
    (fun (p, pids) -> if Array.mem pid pids then Some p else None)
    ctx.view.outputs

let synthesis_op d ctx ?(motivated_by = []) pid v =
  match problem_of_output ctx pid with
  | None -> None
  | Some p ->
    run_tool d ctx ~ovr_pid:pid v;
    Some
      (Operator.synthesis ~motivated_by ~designer:d.d_name
         ~problem:p.Problem.pr_id
         ((prop_name ctx.net pid, Value.Num v) :: tool_outputs d ctx))

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
let pick_from_domain d pid dom direction =
  let push = Float.min 0.25 (0.08 *. float_of_int (fatigue d pid)) in
  let q =
    match direction with
    | `Up -> 0.75 +. push
    | `Down -> 0.25 -. push
    | `None -> 0.5
  in
  match quantile_of_domain dom q with
  | None -> None
  | Some v -> if is_tabu d pid v then None else Some v

(* The feasible-endpoint choice of f_v for forward synthesis: the top or
   bottom value according to which direction helps satisfy the most
   connected constraints (counting model-mediated connections). *)
let endpoint_from_votes d ctx pid dom =
  let up, down =
    if not d.cfg.Config.use_monotone_hints then (0, 0)
    else Influence.endpoint_votes ctx.infl pid
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
  | Some v when not (is_tabu d pid v) -> Some v
  | Some _ -> random_in_domain d dom
  | None -> None

let midpoint_of dom =
  match Domain.hull dom with
  | Some iv when Interval.is_bounded iv -> Some (Interval.midpoint iv)
  | Some _ | None -> None

(* A property the candidate does not set reads the same value for every
   candidate of one scoring: its assignment, else the middle of its
   feasible window, else of its initial range. Kept for the scoring
   unless a tool output of a later candidate takes its slot. *)
let load_settled s net v =
  if s.stamp.(v) = -s.spass then begin
    s.env.(v) <- s.vals.(v);
    true
  end
  else begin
    let p = Network.prop_by_id net v in
    let value =
      match Network.assigned_id net v with
      | Some (Value.Num x) -> Some x
      | Some (Value.Sym _) | None -> (
        match midpoint_of (Network.feasible_id net v) with
        | Some m -> Some m
        | None -> midpoint_of p.Network.p_initial)
    in
    match value with
    | Some x ->
      s.vals.(v) <- x;
      s.stamp.(v) <- -s.spass;
      s.env.(v) <- x;
      true
    | None -> false
  end

(* A constraint side's inputs for one candidate: the candidate itself,
   then the outputs the tool run changed, then the settled reads. *)
let load_side s net progs i =
  let rec go k =
    k >= Point.vars_to progs i
    ||
    let v = Point.var progs k in
    (if v = s.ovr_pid then begin
       s.env.(v) <- s.ovr.(0);
       true
     end
     else if changed s net v then begin
       s.env.(v) <- s.vals.(v);
       true
     end
     else load_settled s net v)
    && go (k + 1)
  in
  go (Point.vars_from progs i)

(* The headroom-seeking f_v variant (the adaptability option): among
   candidate quantiles of the feasible window, pick the one maximizing
   log(min normalized headroom) over the connected constraints — keep
   every constraint comfortably away from its limit so a later
   requirement shift has margin to land in. Unbound teammate parameters
   are assumed at the middle of their feasible windows; each constraint
   check is charged as one tool evaluation, whether or not its sides
   have values. *)
let headroom_from_votes d dpm ctx pid dom =
  let net = ctx.net and s = d.s in
  let connected = Influence.touching ctx.infl pid in
  if connected = [||] then None
  else begin
    let candidates =
      List.filter
        (fun v -> not (is_tabu d pid v))
        (List.sort_uniq compare
           (List.filter_map (quantile_of_domain dom)
              [ 0.1; 0.3; 0.5; 0.7; 0.9 ]))
    in
    let evals = ref 0 in
    s.spass <- s.spass + 1;
    let all = Network.constraint_array net in
    let progs = Influence.programs ctx.infl in
    let score x =
      run_tool d ctx ~ovr_pid:pid x;
      let worst = ref Float.nan and seen = ref false in
      Array.iter
        (fun cid ->
          incr evals;
          let lhs = Influence.lhs cid and rhs = Influence.rhs cid in
          if load_side s net progs lhs then begin
            let l = Point.eval progs lhs ~env:s.env ~stack:s.stack in
            if Float.is_finite l && load_side s net progs rhs then begin
              let r = Point.eval progs rhs ~env:s.env ~stack:s.stack in
              if Float.is_finite r then begin
                let raw =
                  match all.(cid).Constr.rel with
                  | Constr.Le -> r -. l
                  | Constr.Ge -> l -. r
                  | Constr.Eq -> -.Float.abs (l -. r)
                in
                let headroom = raw /. (1. +. Float.abs r) in
                worst := if !seen then Float.min !worst headroom else headroom;
                seen := true
              end
            end
          end)
        connected;
      if not !seen then None
      else
        (* log of the worst headroom [w]. A violated candidate ranks below
           every positive-margin one, but [-1e18 +. w] absorbs any
           |w| < 64 (the float spacing at 1e18 is 128): violated
           candidates usually tie at -1e18, and the first (lowest) of
           them wins. *)
        let w = !worst in
        Some (if w > 0. then Float.log w else -1e18 +. w)
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

let dir_code = function `Up -> 1 | `Down -> 2

(* Delta move for repairs (f_v's "choose from initial subspace" branch):
   exponential search while the direction persists, bisection on flip. *)
let delta_move d dpm pid direction =
  let p = Network.prop_by_id (Dpm.network dpm) pid in
  let initial = p.Network.p_initial in
  match Domain.hull initial with
  | None -> None
  | Some hull ->
    repair_memory d;
    let width = if Interval.is_bounded hull then Interval.width hull else 1.0 in
    let base_step = width /. d.cfg.Config.delta_divisor in
    let step =
      if d.cfg.Config.adaptive_delta then
        let last_step = d.repair_step.(pid) in
        match d.repair_dir.(pid) with
        | 0 -> base_step
        | dir when dir = dir_code direction ->
          Float.min (last_step *. 2.) (width /. 2.)
        | _ -> Float.max (last_step /. 2.) (base_step /. 16.)
      else base_step
    in
    d.repair_dir.(pid) <- dir_code direction;
    d.repair_step.(pid) <- step;
    let cur =
      match Network.assigned_id (Dpm.network dpm) pid with
      | Some (Value.Num v) -> v
      | Some (Value.Sym _) | None -> Interval.midpoint hull
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
      else if is_tabu d pid candidate && tries < 6 then
        attempt (step *. 2.) (tries + 1)
      else if is_tabu d pid candidate then None
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
        let motivated_by = List.filter (pending d) cids in
        Some
          (Operator.verification ~motivated_by ~designer:d.d_name
             ~problem:p.Problem.pr_id cids)))

(* the tool outputs whose model reads the parameter: they move with it
   in a relaxed-feasibility query *)
let unpin ctx pid =
  let progs = Influence.programs ctx.infl in
  List.filter_map
    (fun q ->
      if Point.mentions progs (Influence.model ctx.infl q) pid then
        Some (prop_name ctx.net q)
      else None)
    (Array.to_list ctx.view.derived)

(* Repair: f_a picks the parameter whose single directed move is likely to
   fix the most known violations; f_v picks its new value. *)
let repair_op d dpm ctx =
  let net = ctx.net in
  let votes =
    List.map
      (fun pid ->
        (pid, Influence.repair_votes ctx.infl pid ~violated:d.s.violated))
      ctx.view.free
  in
  let candidates = List.filter (fun (_, (_, _, a)) -> a > 0) votes in
  match candidates with
  | [] -> None
  | _ ->
    let score (pid, (up, down, alpha)) =
      if d.cfg.Config.use_alpha_repair then begin
        (* primary: violations fixable by one directed move, discounted
           when other violations pull the opposite way and when recent
           repairs of this parameter resolved nothing; secondary: alpha *)
        let fixable =
          if d.cfg.Config.use_monotone_hints then
            float_of_int (max up down) -. (0.5 *. float_of_int (min up down))
          else 0.
        in
        let fatigue = float_of_int (fatigue d pid) in
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
    let repair_value pid direction =
      let current = assigned_num net pid in
      let differs = function
        | Some v when current <> Some v -> Some v
        | Some _ | None -> None
      in
      match Dpm.mode dpm with
      | Dpm.Adpm when d.cfg.Config.use_relaxed_feasible -> (
        (* constraint-margin window for the parameter, letting its
           dependent performance properties move with it *)
        let dom =
          Dpm.relaxed_feasible_group dpm ~target:(prop_name net pid)
            ~unpin:(unpin ctx pid)
        in
        match differs (pick_from_domain d pid dom direction) with
        | Some v when not (is_tabu d pid v) -> Some v
        | Some _ | None -> (
          match differs (random_in_domain d dom) with
          | Some v -> Some v
          | None -> delta_move d dpm pid direction))
      | Dpm.Adpm | Dpm.Conventional -> delta_move d dpm pid direction
    in
    (* escape of last resort: every candidate is tabu-locked or saturated —
       restart one of them at a fresh random value inside E_i *)
    let random_restart () =
      let viable =
        List.filter_map
          (fun (pid, _) ->
            let current = assigned_num net pid in
            let initial = (Network.prop_by_id net pid).Network.p_initial in
            let rec draw tries =
              if tries = 0 then None
              else
                match random_in_domain d initial with
                | Some v when current <> Some v && not (is_tabu d pid v) ->
                  Some (pid, v)
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
        | Some (pid, v) ->
          synthesis_op d ctx ~motivated_by:(motivated_for d ctx pid) pid v)
      | (pid, (up, down, _)) :: rest -> (
        let direction = direction_for (up, down) in
        match repair_value pid direction with
        | None -> try_candidates rest
        | Some v ->
          synthesis_op d ctx ~motivated_by:(motivated_for d ctx pid) pid v)
    in
    try_candidates ranked

(* Forward progress: f_a picks the unbound parameter with the smallest
   feasible subspace (ADPM) or a random one (conventional); f_v picks the
   value. *)
let forward_op d dpm ctx =
  let net = ctx.net in
  let unbound = List.filter (fun pid -> not (is_bound net pid)) ctx.view.free in
  match unbound with
  | [] -> (
    (* all parameters placed: run the tool once more if some performance
       property is still uncomputed *)
    run_tool d ctx ~ovr_pid:(-1) 0.;
    match
      Array.find_opt
        (fun q -> changed d.s net q && not (is_bound net q))
        ctx.view.derived
    with
    | None -> None
    | Some q -> (
      match problem_of_output ctx q with
      | None -> None
      | Some p ->
        Some
          (Operator.synthesis ~designer:d.d_name ~problem:p.Problem.pr_id
             (tool_outputs d ctx))))
  | _ ->
    (* a stable sort on scores computed once: the order [List.sort] gives
       when it recomputes them per comparison *)
    let pick_by score =
      match
        List.sort
          (fun (a, _) (b, _) -> Float.compare a b)
          (List.map (fun pid -> (score pid, pid)) (Rng.shuffle d.rng unbound))
      with
      | [] -> None
      | (_, x) :: _ -> Some x
    in
    let target =
      match (d.cfg.Config.forward_ordering, Dpm.mode dpm) with
      | Config.Smallest_subspace, Dpm.Adpm ->
        pick_by (fun pid ->
            let p = Network.prop_by_id net pid in
            Domain.relative_measure ~initial:p.Network.p_initial
              (Network.feasible_id net pid))
      | Config.Most_constrained, (Dpm.Adpm | Dpm.Conventional) ->
        (* constraint membership is static knowledge, available either way;
           count model-mediated membership too (the 2.3.2 extension) *)
        pick_by (fun pid -> -.float_of_int (Influence.reach_count ctx.infl pid))
      | (Config.Smallest_subspace | Config.Random_target), _ ->
        Some (Rng.pick d.rng unbound)
    in
    (match target with
    | None -> None
    | Some pid ->
      let p = Network.prop_by_id net pid in
      let value =
        match Dpm.mode dpm with
        | Dpm.Adpm -> (
          let feasible = Network.feasible_id net pid in
          if Domain.is_empty feasible then
            (* v_F = empty: choose from the initial range *)
            random_in_domain d p.Network.p_initial
          else
            let vote =
              match d.cfg.Config.value_policy with
              | Config.Endpoint -> endpoint_from_votes d ctx pid feasible
              | Config.Headroom -> (
                match headroom_from_votes d dpm ctx pid feasible with
                | Some v -> Some v
                | None -> endpoint_from_votes d ctx pid feasible)
            in
            match vote with
            | Some v -> Some v
            | None -> random_in_domain d p.Network.p_initial)
        | Dpm.Conventional ->
          (* no feasibility information: an engineering guess from the
             middle half of the initial range *)
          quantile_of_domain p.Network.p_initial (0.25 +. Rng.float d.rng 0.5)
      in
      (match value with
      | None -> None
      | Some v -> synthesis_op d ctx pid v))

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
  let ctx = context d dpm in
  match ctx.view.outputs with
  | [] -> None
  | outputs -> (
    let probs = List.map fst outputs in
    let chosen =
      if load_violated d dpm ctx then
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
  let ctx = context d dpm in
  if not (Network.mem_prop ctx.net prop) then None
  else begin
    let pid = Network.prop_id ctx.net prop in
    ignore (load_violated d dpm ctx : bool);
    synthesis_op d ctx ~motivated_by:(motivated_for d ctx pid) pid v
  end

let request_verification d dpm =
  verification_op d dpm (List.map fst (context d dpm).view.outputs)

let tire d pid =
  repair_memory d;
  d.fatigue.(pid) <- d.fatigue.(pid) + 1
let rested d = Array.fill d.fatigue 0 (Array.length d.fatigue) 0

let observe d dpm ~own op result =
  let infl = d.influence in
  let net = Dpm.network dpm in
  (* Every delivered outcome updates the believed constraint statuses —
     this is the knowledge the NM pushes. [r_status_changes] includes the
     conventional-mode freshness decays (Violated fading back to
     Consistent) that the violated/resolved lists omit. *)
  List.iter (fun (cid, _old, status) -> believe d cid status) result.Dpm.r_status_changes;
  match op.Operator.op_kind with
  | Operator.Synthesis assignments when own ->
    let parameter prop =
      let pid = Network.prop_id net prop in
      if Influence.is_derived infl pid then None else Some pid
    in
    if result.Dpm.r_newly_violated <> [] && d.cfg.Config.use_history_tabu then
      List.iter
        (fun (prop, value) ->
          match value with
          | Value.Num v -> (
            match parameter prop with
            | Some pid -> Tabu.add d.tabu pid v
            | None -> ())
          | Value.Sym _ -> ())
        assignments;
    let first =
      match assignments with
      | (prop, Value.Num v) :: _ -> (
        match parameter prop with Some pid -> Some (pid, v) | None -> None)
      | _ -> None
    in
    (match first with
    | Some (pid, _) ->
      d.last_synthesis <- first;
      (* ADPM feedback is immediate: a repair that resolved nothing tires
         out its parameter; one that helped restores it *)
      if Dpm.mode dpm = Dpm.Adpm && op.Operator.op_motivated_by <> [] then
        if result.Dpm.r_resolved = [] then tire d pid else rested d
    | None -> d.last_synthesis <- None);
    (* repairs await re-verification before the fix is trusted *)
    List.iter (fun cid -> set_pending d cid true) op.Operator.op_motivated_by
  | Operator.Verification cids ->
    (* Verification results — whoever ran them, including the leader's
       integration checks — are how conventional mode discovers damage.
       Attribute fresh violations touching my last assignment to it (the
       design-history consultation, Section 3.1.1 footnote). *)
    let touches_last pid =
      result.Dpm.r_newly_violated <> []
      && List.exists
           (fun cid -> Influence.touches infl ~cid pid)
           result.Dpm.r_newly_violated
    in
    (if d.cfg.Config.use_history_tabu then
       match d.last_synthesis with
       | Some (pid, v) when touches_last pid -> Tabu.add d.tabu pid v
       | Some _ | None -> ());
    (* repair fatigue, conventional flavour: a verification that re-finds a
       violation my repairs were supposed to fix — or surfaces a new one on
       the parameter I just moved — tires out that parameter; a resolution
       restores everyone *)
    (match d.last_synthesis with
    | Some (pid, _) ->
      let refound =
        List.exists (pending d) result.Dpm.r_newly_violated
      in
      if refound || touches_last pid then tire d pid
      else if result.Dpm.r_resolved <> [] then rested d
    | None -> ());
    List.iter (fun cid -> set_pending d cid false) cids
  | Operator.Synthesis _ | Operator.Decompose _ -> ()

(* {2 Inspection} *)

let outputs d dpm =
  let ctx = context d dpm in
  let names = List.map (prop_name ctx.net) in
  (names ctx.view.free, names (Array.to_list ctx.view.derived))

let tool_run d dpm ?assign () =
  let ctx = context d dpm in
  (match assign with
  | Some (prop, x) -> run_tool d ctx ~ovr_pid:(Network.prop_id ctx.net prop) x
  | None -> run_tool d ctx ~ovr_pid:(-1) 0.);
  tool_outputs d ctx

let headroom_value d dpm prop dom =
  let ctx = context d dpm in
  headroom_from_votes d dpm ctx (Network.prop_id ctx.net prop) dom

(* {2 Mailbox} *)

let deliver d ~own op result =
  Queue.add { dv_own = own; dv_op = op; dv_result = result } d.inbox

let drain d dpm =
  let n = Queue.length d.inbox in
  while not (Queue.is_empty d.inbox) do
    let { dv_own; dv_op; dv_result } = Queue.take d.inbox in
    observe d dpm ~own:dv_own dv_op dv_result
  done;
  n
