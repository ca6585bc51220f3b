open Adpm_interval
open Adpm_expr
open Adpm_trace

type outcome = {
  feasible : Domain.t array;
  statuses : Constr.status array;
  evaluations : int;
  revisions : int;
  fixpoint : bool;
}

(* The working box store of a propagation run: struct-of-arrays float
   layout indexed by dense prop id, so the HC4 kernels revise it without
   boxing intervals. [mask] is true where the property has a box (numeric
   and not symbolically assigned); it never changes during a run. *)
type store = { lo : float array; hi : float array; mask : bool array }

let store_box st pid = Interval.make st.lo.(pid) st.hi.(pid)

(* A numeric property's feasible subspace on the store. *)
let feasible_on st (p : Network.prop) =
  let pid = p.Network.p_id and initial = p.Network.p_initial in
  if st.mask.(pid) then Domain.refine initial (store_box st pid) else initial

(* [narrowed] is always a sub-interval of [old_iv] (HC4 intersects with the
   input box); requeue only when its width shrank. When both widths are
   infinite their difference says nothing ([inf < inf] is false even when
   a bound genuinely moved, e.g. [-inf,+inf] -> [0,+inf]), so compare the
   bounds directly. *)
let[@inline] narrower_f ~olo ~ohi ~nlo ~nhi =
  let old_w = ohi -. olo and new_w = nhi -. nlo in
  if Float.is_finite old_w then new_w < old_w
  else if Float.is_finite new_w then true
  else nlo > olo || nhi < ohi

let set_box st pid iv =
  st.lo.(pid) <- Interval.lo iv;
  st.hi.(pid) <- Interval.hi iv;
  st.mask.(pid) <- true

(* The store of the network's current boxes ({!Network.box}), filled in
   dense id order: the assigned point for bound properties, the hull of
   the initial range otherwise, no box for symbolic ones. *)
let initial_store net =
  let n = Network.prop_count net in
  let st =
    { lo = Array.make n 0.; hi = Array.make n 0.; mask = Array.make n false }
  in
  for pid = 0 to n - 1 do
    match Network.assigned_id net pid with
    | Some (Value.Num x) -> set_box st pid (Interval.of_point x)
    | Some (Value.Sym _) -> ()
    | None ->
      Option.iter (set_box st pid)
        (Domain.hull (Network.prop_by_id net pid).Network.p_initial)
  done;
  st

let copy_store st =
  { lo = Array.copy st.lo; hi = Array.copy st.hi; mask = Array.copy st.mask }

let[@inline] get (a : Network.ints) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

(* The HC4 fixpoint core, shared by hull propagation and shaving probes.
   Mutates the store; returns the evaluation count, whether some constraint
   became certainly unsatisfiable on the box, and whether the revision
   budget was exhausted. Constraints found Empty are recorded in
   [empty_marks] when provided. When [waves] is given, it receives the
   revision count of each propagation wave in order: wave 0 is the initial
   queue — [seed] when given (the incremental engine's dirty-seeded
   worklist), every constraint otherwise — and wave n+1 the constraints
   requeued while processing wave n.

   The loop runs entirely on dense ids: constraints come from the cached
   id-indexed array, membership flags are plain bool arrays, and a revision
   is one [Hc4.revise_kernel] call against the float store followed by an
   in-place gate over the kernel's accumulator slots. *)
let fixpoint ~max_revisions ?empty_marks ?waves ?seed net st =
  let kernels = Network.kernels net in
  let sc = Network.scratch net in
  let adj = Network.adjacency net in
  let adj_first = adj.Network.adj_first and adj_cids = adj.Network.adj_cids in
  let n_con = Hc4.count kernels in
  let queue = Queue.create () in
  let queued = Array.make (max 1 n_con) false in
  let enqueue cid =
    if not queued.(cid) then begin
      queued.(cid) <- true;
      Queue.add cid queue
    end
  in
  (match seed with
  | Some cs -> List.iter (fun c -> enqueue c.Constr.id) cs
  | None ->
    for cid = 0 to n_con - 1 do
      enqueue cid
    done);
  let evaluations = ref 0 in
  let budget_hit = ref false in
  let any_empty = ref false in
  let wave_sizes = ref [] (* reversed *) in
  let this_wave = ref 0 in
  let wave_boundary = ref (Queue.length queue) in
  let continue_loop () =
    if Queue.is_empty queue then false
    else if !evaluations >= max_revisions then begin
      budget_hit := true;
      false
    end
    else true
  in
  while continue_loop () do
    if !wave_boundary = 0 then begin
      wave_sizes := !this_wave :: !wave_sizes;
      this_wave := 0;
      wave_boundary := Queue.length queue
    end;
    let cid = Queue.pop queue in
    queued.(cid) <- false;
    decr wave_boundary;
    incr this_wave;
    incr evaluations;
    if not (Hc4.revise_kernel kernels cid sc ~lo:st.lo ~hi:st.hi) then begin
      any_empty := true;
      match empty_marks with
      | Some marks -> Hashtbl.replace marks cid ()
      | None -> ()
    end
    else begin
      let acc_lo = sc.Hc4.s_acc_lo and acc_hi = sc.Hc4.s_acc_hi in
      for j = 0 to Hc4.arity kernels cid - 1 do
        let pid = Hc4.var kernels cid j in
        let olo = st.lo.(pid) and ohi = st.hi.(pid) in
        let nlo = acc_lo.(j) and nhi = acc_hi.(j) in
        (* A projection that moves a bound without shrinking the width
           (possible only by rounding) is discarded, not just left
           unqueued: applying it would make the final box depend on the
           revision trajectory, and the incremental engine restarts from
           the stored fixpoint along a different trajectory than a
           from-scratch run. Discarding keeps the stored boxes an exact
           fixpoint of this gated contraction, so both engines converge
           to bit-identical results. *)
        if (not (olo = nlo && ohi = nhi)) && narrower_f ~olo ~ohi ~nlo ~nhi
        then begin
          st.lo.(pid) <- nlo;
          st.hi.(pid) <- nhi;
          (* The revised constraint requeues itself too: HC4-revise is
             not idempotent, and fair scheduling (iterate until no
             revise can change anything) is what makes the final boxes
             a true fixpoint — and therefore independent of revision
             order, which the incremental engine's bit-identical
             equivalence with from-scratch runs rests on. *)
          for i = get adj_first pid to get adj_first (pid + 1) - 1 do
            enqueue (get adj_cids i)
          done
        end
      done
    end
  done;
  if !this_wave > 0 then wave_sizes := !this_wave :: !wave_sizes;
  (match waves with
  | Some cell -> cell := List.rev !wave_sizes
  | None -> ());
  (!evaluations, !any_empty, !budget_hit)

(* 3B-style bound shaving: try to prove the outermost [1/slices] slice of a
   variable's box infeasible by running the fixpoint on a copy; on success
   the bound moves inward. Each probe's revisions are charged to the
   caller's counter. *)
let shave_bounds ~max_revisions ~slices net st evaluations =
  let probe pid slice =
    let cp = copy_store st in
    cp.lo.(pid) <- Interval.lo slice;
    cp.hi.(pid) <- Interval.hi slice;
    let evals, infeasible, _ =
      fixpoint ~max_revisions:(max_revisions / 4) net cp
    in
    evaluations := !evaluations + evals;
    infeasible
  in
  let shave_prop pid =
    let changed = ref false in
    let attempt side =
      let iv = store_box st pid in
      let w = Interval.width iv in
      if Float.is_finite w && w > 0. then begin
        let step = w /. float_of_int slices in
        let lo = Interval.lo iv and hi = Interval.hi iv in
        let slice, rest =
          match side with
          | `Low -> (Interval.make lo (lo +. step), Interval.make (lo +. step) hi)
          | `High -> (Interval.make (hi -. step) hi, Interval.make lo (hi -. step))
        in
        if probe pid slice then begin
          st.lo.(pid) <- Interval.lo rest;
          st.hi.(pid) <- Interval.hi rest;
          changed := true
        end
      end
    in
    attempt `Low;
    attempt `High;
    !changed
  in
  let unbound =
    List.filter
      (fun pid ->
        st.mask.(pid) && Network.assigned_id net pid = None)
      (List.init (Network.prop_count net) Fun.id)
  in
  (* one shaving sweep per variable, repeated while it makes progress and
     the budget allows; bounded to avoid slow convergence *)
  let rec sweeps remaining =
    if remaining = 0 || !evaluations >= max_revisions then ()
    else begin
      let progress =
        List.fold_left
          (fun acc pid ->
            if !evaluations >= max_revisions then acc
            else shave_prop pid || acc)
          false unbound
      in
      if progress then begin
        (* re-contract with plain propagation after successful shaves *)
        let evals, _, _ = fixpoint ~max_revisions net st in
        evaluations := !evaluations + evals;
        sweeps (remaining - 1)
      end
    end
  in
  sweeps 3

(* The final classification sweep: the status of every constraint on
   the contracted box (one evaluation each, a forward sweep of its
   kernel) and the feasible subspace of every property, both by dense
   id. Each is a function of the boxes it reads (and, for a status, the
   constraint's empty mark), so against [prev], the persisted result of
   the last sweep, only what moved is classified again: a property whose
   box is bit for bit the stored one keeps the stored domain (the same
   pointer), and a constraint is evaluated again only when one of its
   arguments' boxes moved or its empty mark flipped. The charge is the
   full sweep's all the same. Bits, not [=], because [0. = -0.] while a
   kernel may tell them apart. *)
let classify ?prev net st empty_marks revisions =
  let carr = Network.constraint_array net in
  let kernels = Network.kernels net in
  let sc = Network.scratch net in
  let adj = Network.adjacency net in
  let first = adj.Network.adj_first and cids = adj.Network.adj_cids in
  let n_con = Array.length carr and n = Network.prop_count net in
  let feasible, statuses =
    match prev with
    | Some ps -> (Array.copy ps.Network.ps_feasible, Array.copy ps.Network.ps_status)
    | None -> (Array.make n Domain.Empty, Array.make n_con Constr.Consistent)
  in
  let stale = Array.make n_con (Option.is_none prev) in
  let same (a : float) b = Int64.bits_of_float a = Int64.bits_of_float b in
  let moved pid =
    match prev with
    | None -> true
    | Some ps ->
      let mask = st.mask.(pid) in
      mask <> ps.Network.ps_mask.(pid)
      || mask
         && not
              (same st.lo.(pid) ps.Network.ps_lo.(pid)
              && same st.hi.(pid) ps.Network.ps_hi.(pid))
  in
  for pid = 0 to n - 1 do
    if moved pid then begin
      let p = Network.prop_by_id net pid in
      feasible.(pid) <-
        (if Domain.is_numeric p.Network.p_initial then feasible_on st p
         else p.Network.p_initial);
      for i = get first pid to get first (pid + 1) - 1 do
        stale.(get cids i) <- true
      done
    end
  done;
  Option.iter
    (fun ps ->
      let flipped marks other =
        Hashtbl.iter
          (fun cid () -> if not (Hashtbl.mem other cid) then stale.(cid) <- true)
          marks
      in
      flipped empty_marks ps.Network.ps_empties;
      flipped ps.Network.ps_empties empty_marks)
    prev;
  for cid = 0 to n_con - 1 do
    if stale.(cid) then
      statuses.(cid) <-
        (if Hashtbl.mem empty_marks cid then Constr.Violated
         else if Hc4.eval_kernel kernels cid sc ~lo:st.lo ~hi:st.hi then
           Constr.kernel_status carr.(cid) kernels cid sc
         else Constr.Violated)
  done;
  (statuses, feasible, revisions + n_con)

(* [base_revisions] charges work done before this run to its counters: a
   full restart that replaces an aborted incremental attempt inherits the
   attempt's revisions, so reported costs reflect all HC4 work performed. *)
let run_core ~max_revisions ~consistency ~tracer ~engine ~st ~empty_marks
    ~seed ?(base_revisions = 0) ?prev net =
  if Tracer.active tracer then
    Tracer.emit tracer
      (Event.Propagation_started { constraints = Network.constraint_count net });
  let seeded =
    match seed with
    | Some cs -> List.length cs
    | None -> Network.constraint_count net
  in
  let waves = ref [] in
  let evals, _, budget_hit =
    fixpoint ~max_revisions ~empty_marks ~waves ?seed net st
  in
  let revisions = ref (base_revisions + evals) in
  (match consistency with
  | `Hull -> ()
  | `Shave slices ->
    if slices < 2 then invalid_arg "Propagate.run: shaving needs >= 2 slices";
    shave_bounds ~max_revisions ~slices net st revisions);
  let statuses, feasible, evaluations = classify ?prev net st empty_marks !revisions in
  if Tracer.active tracer then
    Tracer.emit tracer
      (Event.Propagation_finished
         {
           engine;
           seeded;
           evaluations;
           revisions = !revisions;
           waves = !waves;
           empties = Hashtbl.length empty_marks;
           fixpoint = not budget_hit;
         });
  { feasible; statuses; evaluations; revisions = !revisions; fixpoint = not budget_hit }

let run ?(max_revisions = 10_000) ?(consistency = `Hull)
    ?(tracer = Tracer.null) net =
  run_core ~max_revisions ~consistency ~tracer ~engine:"full"
    ~st:(initial_store net)
    ~empty_marks:(Hashtbl.create 8)
    ~seed:None net

(* Constraints touching any dirty property, first-seen order, deduplicated. *)
let dirty_seed net dirty =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let acc =
    List.fold_left
      (fun acc name ->
        List.fold_left
          (fun acc c ->
            if Hashtbl.mem seen c.Constr.id then acc
            else begin
              Hashtbl.replace seen c.Constr.id ();
              c :: acc
            end)
          acc
          (Network.constraints_of_prop net name))
      [] dirty
  in
  List.rev acc

let run_incremental ?(max_revisions = 10_000)
    ?(tracer = Tracer.null) net =
  (* a store of another shape (which structural edits prevent by
     invalidating it) is not restarted from or classified against *)
  let prev =
    match Network.prop_state net with
    | Some ps when Array.length ps.Network.ps_lo = Network.prop_count net -> Some ps
    | Some _ | None -> None
  in
  let persist st empty_marks outcome =
    Network.store_prop_state net
      {
        Network.ps_lo = st.lo;
        ps_hi = st.hi;
        ps_mask = st.mask;
        ps_empties = empty_marks;
        ps_feasible = outcome.feasible;
        ps_status = outcome.statuses;
      };
    Network.clear_dirty net;
    outcome
  in
  let full_restart ?(base_revisions = 0) () =
    let st = initial_store net in
    let empty_marks : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    persist st empty_marks
      (run_core ~max_revisions ~consistency:`Hull ~tracer ~engine:"full"
         ~st ~empty_marks ~seed:None ~base_revisions ?prev net)
  in
  match prev with
  | None -> full_restart ()
  | Some ps ->
    let dirty = Network.dirty_props net in
    (* Restarting from the previous fixpoint is sound only when every dirty
       property's fresh box lies inside the stored contracted box:
       propagation is a monotone contraction, so narrowing the start can
       only reproduce the same greatest fixpoint. Unassignments and
       assignments outside the stored box widen the start, in which case a
       stale contraction could wrongly survive — fall back to a
       from-scratch run. *)
    let narrowing_only =
      List.for_all
        (fun name ->
          match Network.box net name with
          | None -> true (* symbolic: propagation never sees it *)
          | Some fresh ->
            let pid = Network.prop_id net name in
            ps.Network.ps_mask.(pid)
            && ps.Network.ps_lo.(pid) <= Interval.lo fresh
            && Interval.hi fresh <= ps.Network.ps_hi.(pid))
        dirty
    in
    (* Empty constraints break the order-independence argument: a revise
       that returns Empty contributes no narrowings, so *when* a constraint
       turns empty along a trajectory decides which of its earlier
       narrowings survive in the final box. Emptiness is monotone downward
       (both the backward projections and the box shrink as the box
       shrinks, so a constraint empty on a box is empty on every sub-box),
       which yields a sound discipline: only restart incrementally from an
       empty-free stored state, and discard the attempt if it discovers
       any empty. An empty-free attempt then certifies the from-scratch
       run is empty-free too — a constraint empty anywhere along the full
       trajectory would be empty on the attempt's (tighter) fixpoint, and
       fair scheduling revises every constraint at its arguments' final
       values, so the attempt (or, for untouched constraints, the previous
       run) would have marked it. *)
    if (not narrowing_only) || Hashtbl.length ps.Network.ps_empties > 0 then
      full_restart ()
    else begin
      let st =
        {
          lo = Array.copy ps.Network.ps_lo;
          hi = Array.copy ps.Network.ps_hi;
          mask = Array.copy ps.Network.ps_mask;
        }
      in
      List.iter
        (fun name ->
          match Network.box net name with
          | Some fresh ->
            let pid = Network.prop_id net name in
            st.lo.(pid) <- Interval.lo fresh;
            st.hi.(pid) <- Interval.hi fresh
          | None -> ())
        dirty;
      let empty_marks : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let outcome =
        run_core ~max_revisions ~consistency:`Hull ~tracer
          ~engine:"incremental" ~st ~empty_marks
          ~seed:(Some (dirty_seed net dirty))
          ?prev net
      in
      if Hashtbl.length empty_marks > 0 then
        (* A dirty assignment introduced a conflict: the attempt's result
           is trajectory-dependent, so rerun from scratch, charging the
           aborted attempt's work to the restart. *)
        full_restart ~base_revisions:outcome.revisions ()
      else persist st empty_marks outcome
    end

let apply net outcome =
  Network.set_result net ~feasible:outcome.feasible ~statuses:outcome.statuses

let run_incremental_and_apply ?max_revisions ?tracer net =
  let outcome = run_incremental ?max_revisions ?tracer net in
  apply net outcome;
  outcome

(* Answers what [run] would on a copy of [net] with [target] and [unpin]
   unassigned, without making the copy: the same store, fixpoint and
   evaluation charge (revisions plus one status sweep), reading only the
   target's box. [net] itself is not written. *)
let relaxed_feasible_group ?(max_revisions = 10_000) net ~target ~unpin =
  let st = initial_store net in
  let release p =
    Option.iter (set_box st p.Network.p_id) (Domain.hull p.Network.p_initial)
  in
  let tp = Network.find_prop net target in
  release tp;
  List.iter (fun name -> release (Network.find_prop net name)) unpin;
  let evals, _, _ = fixpoint ~max_revisions net st in
  (feasible_on st tp, evals + Network.constraint_count net)
