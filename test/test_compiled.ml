(* The compiled scenario: every run starts from a shared template.

   Equivalence: a run's starting state, taken from the template, is the
   state a fresh elaboration plus setup propagation reaches, bit for bit.
   Isolation: nothing a run, a session or a pool worker does writes the
   template. *)

open Adpm_interval
open Adpm_csp
open Adpm_core
open Adpm_teamsim
open Adpm_trace
open Adpm_scenarios

(* {2 Equivalence} *)

(* A scenario value nobody has compiled, elaborated from its DDDL text
   (a resolved [gen:] scenario regenerates its declaration instead). *)
let fresh name =
  let src =
    match name with
    | "simple" -> Simple.source
    | "lna" -> Lna.source
    | "sensor" -> Sensor.source
    | "receiver" -> Receiver.source
    | spec -> (
      match Generated.params_of_spec (String.sub spec 4 (String.length spec - 4)) with
      | Ok p -> Generated.source p
      | Error msg -> invalid_arg msg)
  in
  Adpm_dddl.Elaborate.load_string src

let gen_specs =
  [
    "gen:n=2,k=1";
    "gen:n=3,k=2";
    "gen:n=4,k=3,seed=7,topology=star";
    "gen:n=4,k=2,seed=3,topology=ring,coupling=0.5";
    "gen:n=5,k=2,seed=41,topology=random-0.5,coupling=0.5,jitter=0.3";
    "gen:n=6,k=3,seed=11,slack=0.05";
    "gen:n=6,k=1,seed=2,topology=star,jitter=0.9";
    "gen:n=7,k=4,seed=19,topology=random-0.3";
    "gen:n=8,k=3,seed=1,topology=random-0.4,coupling=0.25";
    "gen:n=8,k=2,seed=23,slack=0.4,coupling=1";
    "gen:n=9,k=3,seed=5,topology=ring,jitter=0.5";
    "gen:n=10,k=2,seed=8,topology=random-0.1";
    "gen:n=12,k=3,seed=13,topology=star,coupling=0.25";
    "gen:n=12,k=1,seed=31,slack=0.01";
    "gen:n=16,k=3,seed=1,topology=random-0.2,coupling=0.25";
    "gen:n=16,k=3,seed=5,topology=random-0.2,coupling=0.25,jitter=0.2";
  ]

let scenario_names = [ "simple"; "lna"; "sensor"; "receiver" ] @ gen_specs

(* a budget every setup propagation exhausts: the initial wave alone
   revises every constraint once *)
let exhausted = 2

let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

let domain_bits = function
  | Domain.Empty -> "empty"
  | Domain.Continuous iv -> bits (Interval.lo iv) ^ ":" ^ bits (Interval.hi iv)
  | Domain.Finite a -> String.concat "," (Array.to_list (Array.map bits a))
  | Domain.Symbolic l -> String.concat "," l

let status = Constr.status_to_string

(* Everything the setup leaves that a run reads, floats by their bits
   (so the sign of a zero counts). *)
let state dpm =
  let net = Dpm.network dpm in
  let boxes =
    match Network.prop_state net with
    | None -> [ ("boxes", "none") ]
    | Some ps ->
      [
        ( "boxes",
          String.concat ";"
            (List.init (Array.length ps.Network.ps_lo) (fun pid ->
                 Printf.sprintf "%s:%s:%b" (bits ps.Network.ps_lo.(pid))
                   (bits ps.Network.ps_hi.(pid)) ps.Network.ps_mask.(pid))) );
        ( "empties",
          String.concat ","
            (List.map string_of_int
               (List.sort compare
                  (Hashtbl.fold (fun cid () acc -> cid :: acc) ps.Network.ps_empties
                     []))) );
      ]
  in
  boxes
  @ [
      ( "statuses",
        String.concat ","
          (List.init (Network.constraint_count net) (fun cid ->
               status (Network.status net cid))) );
      ( "feasible",
        String.concat ";"
          (List.init (Network.prop_count net) (fun pid ->
               domain_bits (Network.feasible_id net pid))) );
      ( "kickoff statuses",
        String.concat ","
          (List.map
             (fun (cid, s) -> Printf.sprintf "%d=%s" cid (status s))
             (Dpm.known_statuses dpm)) );
      ("revisions", string_of_int (Dpm.revision_work dpm));
      ("network revision", string_of_int (Network.revision net));
      ("dirty", String.concat "," (List.sort compare (Network.dirty_props net)));
      ("evaluations", string_of_int (Dpm.eval_count dpm));
      ("designers", String.concat "," (Dpm.designers dpm));
    ]

let lines buf = List.map Codec.to_line (Sink.Collect.contents buf)

(* the reference: elaborate, then propagate as the engine once did *)
let elaborated name ~mode ~max_revisions =
  let dpm = (fresh name).Scenario.sc_build ~mode in
  let buf, sink = Sink.collector () in
  Dpm.set_tracer dpm (Tracer.create sink);
  let charged =
    match mode with
    | Dpm.Conventional -> []
    | Dpm.Adpm ->
      let o = Dpm.run_propagation ~max_revisions dpm in
      [
        ("setup evaluations", string_of_int o.Propagate.evaluations);
        ( "setup violations",
          string_of_int
            (List.length
               (List.filter (( = ) Constr.Violated) (Array.to_list o.Propagate.statuses))) );
      ]
  in
  Dpm.set_tracer dpm Tracer.null;
  (charged @ state dpm, lines buf)

let started sc ~mode ~max_revisions =
  let dpm, setup = Compiled.start ~max_revisions (Scenario.compiled sc ~mode) in
  let buf, sink = Sink.collector () in
  let charged =
    match setup with
    | None -> []
    | Some s ->
      Compiled.trace_setup s (Tracer.create sink);
      [
        ("setup evaluations", string_of_int (Compiled.setup_evaluations s));
        ("setup violations", string_of_int (Compiled.setup_violated s));
      ]
  in
  (charged @ state dpm, lines buf)

let exhausts events =
  List.exists
    (fun line ->
      match Codec.of_line line with
      | Ok { Event.event = Event.Propagation_finished { fixpoint; _ }; _ } ->
        not fixpoint
      | Ok _ | Error _ -> false)
    events

let test_template_equals_elaboration () =
  List.iter
    (fun name ->
      let sc = Registry.resolve name in
      List.iter
        (fun mode ->
          List.iter
            (fun max_revisions ->
              let what =
                Printf.sprintf "%s/%s/%d" name (Dpm.mode_to_string mode) max_revisions
              in
              let want_state, want_events = elaborated name ~mode ~max_revisions in
              (* twice: the second start reads the cached setup *)
              for _ = 1 to 2 do
                let got_state, got_events = started sc ~mode ~max_revisions in
                Alcotest.(check (list (pair string string)))
                  (what ^ ": state") want_state got_state;
                Alcotest.(check (list string))
                  (what ^ ": setup events") want_events got_events
              done;
              if mode = Dpm.Adpm && max_revisions = exhausted then
                Alcotest.(check bool)
                  (what ^ ": the budget stops the setup")
                  true (exhausts want_events))
            [ 10_000; exhausted ])
        [ Dpm.Adpm; Dpm.Conventional ])
    scenario_names

(* Compiling freezes the template only: [sc_build] still elaborates a
   network of its own, as a never-compiled scenario does. *)
let test_build_after_compile () =
  List.iter
    (fun name ->
      let sc = Registry.resolve name in
      ignore (Scenario.compiled sc ~mode:Dpm.Adpm : Compiled.t);
      List.iter
        (fun mode ->
          let after = sc.Scenario.sc_build ~mode in
          let built = (fresh name).Scenario.sc_build ~mode in
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s/%s: build after compile" name (Dpm.mode_to_string mode))
            (state built) (state after);
          Alcotest.(check bool) "its network can be edited" false
            (Network.frozen (Dpm.network after)))
        [ Dpm.Adpm; Dpm.Conventional ])
    [ "sensor"; "gen:n=5,k=2,seed=41,topology=random-0.5,coupling=0.5,jitter=0.3" ]

(* {2 Isolation} *)

let spec = "gen:n=3,k=2"

let traced cfg sc =
  let buf, sink = Sink.collector () in
  let tracer = Tracer.create sink in
  let o =
    Fun.protect ~finally:(fun () -> Tracer.close tracer) (fun () -> Engine.run ~tracer cfg sc)
  in
  (Export.summary_json o.Engine.o_summary, lines buf)

let plan s = match Shift.plan_of_string s with Ok p -> p | Error e -> failwith e

(* one of the 50 runs between the two runs of seed A *)
let other_run sc i =
  let mode = if i mod 2 = 0 then Dpm.Adpm else Dpm.Conventional in
  let base = Config.default ~mode ~seed:(100 + i) in
  match i mod 5 with
  | 0 ->
    ignore
      (traced
         {
           base with
           Config.latency = 1;
           faults =
             {
               Adpm_fault.Fault.p_drop = 0.2;
               p_dup = 0.1;
               p_jitter = 2;
               p_crashes =
                 [ { Adpm_fault.Fault.cr_designer = "designer0"; cr_at = 2; cr_recover = 3 } ];
             };
         }
         sc
        : string * string list)
  | 1 ->
    ignore
      (Engine.run { base with Config.shifts = plan "p_budget>=20@3;gmin0>=1@5" } sc
        : Engine.outcome)
  | 2 ->
    ignore
      (Engine.run
         { base with Config.value_policy = Config.Headroom; latency = 2; mode = Dpm.Adpm }
         sc
        : Engine.outcome)
  | 3 ->
    (* a decomposition registers a problem: the instance rebuilds its own
       layout, then keeps working *)
    let dpm, _ = Engine.prepare base sc in
    let p = List.find (fun p -> p.Problem.pr_id = 1) (Dpm.problems dpm) in
    let part =
      {
        Operator.sp_name = "part";
        sp_owner = p.Problem.pr_owner;
        sp_inputs = [];
        sp_outputs = [ List.hd p.Problem.pr_outputs ];
        sp_constraints = p.Problem.pr_constraints;
        sp_depends_on_names = [];
        sp_object = None;
      }
    in
    ignore
      (Dpm.apply dpm
         (Operator.decompose ~designer:p.Problem.pr_owner ~problem:1 [ part ])
        : Dpm.result);
    let top = Dpm.top_problem dpm in
    ignore
      (Dpm.apply dpm
         (Operator.verification ~designer:top.Problem.pr_owner ~problem:top.Problem.pr_id
            top.Problem.pr_constraints)
        : Dpm.result)
  | _ ->
    let it =
      Interactive.create ~mode ~seed:(100 + i) sc ~designer:"designer1"
    in
    List.iter
      (fun l -> ignore (Interactive.execute it l : (string, string) result))
      [ "suggest"; "auto"; "step"; "verify"; "step" ]

(* seed A in both modes; under latency 1 the ADPM team decides from its
   kickoff picture of the statuses *)
let seed_a =
  [
    { (Config.default ~mode:Dpm.Adpm ~seed:3) with Config.latency = 1 };
    Config.default ~mode:Dpm.Conventional ~seed:3;
  ]

let test_runs_never_write_the_template () =
  let sc = Registry.resolve spec in
  let first = List.map (fun cfg -> traced cfg sc) seed_a in
  let problems () =
    List.length (Dpm.problems (fst (Engine.prepare (List.hd seed_a) sc)))
  in
  let starts () = List.map (fun cfg -> state (fst (Engine.prepare cfg sc))) seed_a in
  let before = problems () and start = starts () in
  for i = 0 to 49 do
    other_run sc i;
    Alcotest.(check (list (list (pair string string))))
      (Printf.sprintf "after run %d, a new run starts from the same state" i)
      start (starts ())
  done;
  let again = List.map (fun cfg -> traced cfg sc) seed_a in
  List.iter2
    (fun (s1, t1) (s2, t2) ->
      Alcotest.(check string) "summary of seed A" s1 s2;
      Alcotest.(check (list string)) "trace of seed A" t1 t2)
    first again;
  Alcotest.(check int) "a decomposition stays in its run" before (problems ());
  Alcotest.(check (list (pair string (list string))))
    "and a fresh elaboration agrees" first
    (List.map (fun cfg -> traced cfg (Registry.resolve spec)) seed_a)

(* teamsimd sessions of one scenario value, commands interleaved across
   them, against in-process sessions each on a fresh resolution *)
let script = [ "status"; "suggest"; "auto"; "step"; "verify"; "auto"; "step"; "conflicts" ]

let test_interleaved_sessions () =
  let sc = Registry.resolve spec in
  let team = Compiled.designers (Scenario.compiled sc ~mode:Dpm.Adpm) in
  let params i =
    ( (if i mod 2 = 0 then Dpm.Adpm else Dpm.Conventional),
      i + 1,
      List.nth team (i mod List.length team) )
  in
  let sessions =
    List.init 16 (fun i ->
        let mode, seed, designer = params i in
        match
          Adpm_serve.Session.create
            ~resolve:(fun _ -> Ok sc)
            ~id:(Printf.sprintf "s%d" i) ~scenario:spec ~mode ~seed ~designer
        with
        | Ok s -> s
        | Error e -> Alcotest.fail e)
  in
  let replies = Array.make 16 [] in
  List.iter
    (fun line ->
      List.iteri
        (fun i s ->
          replies.(i) <- Adpm_serve.Session.exec s line :: replies.(i))
        sessions)
    script;
  List.iteri
    (fun i s ->
      let mode, seed, designer = params i in
      let it = Interactive.create ~mode ~seed (Registry.resolve spec) ~designer in
      let want = List.map (Interactive.execute it) script in
      let show = List.map (function Ok o -> "ok " ^ o | Error e -> "error " ^ e) in
      Alcotest.(check (list string))
        (Printf.sprintf "session %d replies" i)
        (show want)
        (show (List.rev replies.(i)));
      Alcotest.(check string)
        (Printf.sprintf "session %d fingerprint" i)
        (Adpm_serve.Session.fingerprint_of_interactive it)
        (Adpm_serve.Session.fingerprint s))
    sessions

let test_pool_shares_one_template () =
  let sc = Registry.resolve "gen:n=5,k=2,seed=41,topology=random-0.5,coupling=0.5,jitter=0.3" in
  let cfg =
    { (Config.default ~mode:Dpm.Adpm ~seed:0) with
      Config.value_policy = Config.Headroom;
      latency = 2 }
  in
  let seeds = List.init 12 succ in
  let summaries jobs = List.map Export.summary_json (Engine.run_many ~jobs cfg sc ~seeds) in
  (* compiled cold inside the pool, then read warm by both *)
  let cold = summaries 4 in
  let one = summaries 1 in
  Alcotest.(check (list string)) "jobs=4 equals jobs=1, seed order included" one cold;
  Alcotest.(check (list string)) "and again, warm" one (summaries 4)

let suite =
  [
    ("template equals elaboration", `Quick, test_template_equals_elaboration);
    ("build after compile equals elaboration", `Quick, test_build_after_compile);
    ("runs never write the template", `Quick, test_runs_never_write_the_template);
    ("interleaved daemon sessions", `Quick, test_interleaved_sessions);
    ("pool shares one template", `Quick, test_pool_shares_one_template);
  ]
