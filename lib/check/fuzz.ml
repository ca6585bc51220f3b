open Adpm_core
open Adpm_trace
module Rng = Adpm_util.Rng
module Model = Adpm_sim.Model
module Fault = Adpm_fault.Fault
module Config = Adpm_teamsim.Config
module Engine = Adpm_teamsim.Engine
module Scenario = Adpm_teamsim.Scenario
module Compiled = Adpm_teamsim.Compiled

type schedule = {
  fs_seed : int;
  fs_latency : int;
  fs_duration : Model.duration;
  fs_faults : Fault.plan;
}

let schedule_to_string s =
  Printf.sprintf "seed=%d latency=%d duration=%s drop=%g dup=%g jitter=%d%s"
    s.fs_seed s.fs_latency
    (Model.duration_to_string s.fs_duration)
    s.fs_faults.Fault.p_drop s.fs_faults.Fault.p_dup s.fs_faults.Fault.p_jitter
    (match s.fs_faults.Fault.p_crashes with
    | [] -> ""
    | cs -> " crashes=" ^ Fault.crashes_to_string cs)

let config_of_schedule ~mode ?max_ops s =
  let cfg = Config.default ~mode ~seed:s.fs_seed in
  let cfg =
    {
      cfg with
      Config.latency = s.fs_latency;
      duration_model = s.fs_duration;
      faults = s.fs_faults;
    }
  in
  match max_ops with
  | None -> cfg
  | Some max_ops -> { cfg with Config.max_ops }

let gen_duration rng =
  match Rng.int rng 3 with
  | 0 -> Model.unit_duration
  | 1 -> Model.Uniform (1 + Rng.int rng 3)
  | _ ->
    Model.Per_kind
      {
        dm_synthesis = 1 + Rng.int rng 4;
        dm_verification = 1 + Rng.int rng 4;
        dm_decompose = 1 + Rng.int rng 4;
      }

let gen_faults rng ~roster =
  let p_drop = if Rng.bool rng then 0. else Rng.float rng 0.3 in
  let p_dup = if Rng.bool rng then 0. else Rng.float rng 0.2 in
  let p_jitter = Rng.int rng 4 in
  let p_crashes =
    (* at most one crash per generated plan: enough to exercise the
       recovery properties, small enough to keep runs converging *)
    if roster = [] || Rng.int rng 3 <> 0 then []
    else
      let designer = Rng.pick rng roster in
      [
        {
          Fault.cr_designer = designer;
          cr_at = Rng.int rng 16;
          cr_recover = 1 + Rng.int rng 8;
        };
      ]
  in
  { Fault.p_drop; p_dup; p_jitter; p_crashes }

let gen_schedule ~rng ~roster ?faults () =
  let fs_seed = 1 + Rng.int rng 1_000_000 in
  let fs_latency = Rng.int rng 4 in
  let fs_duration = gen_duration rng in
  let fs_faults =
    match faults with Some plan -> plan | None -> gen_faults rng ~roster
  in
  { fs_seed; fs_latency; fs_duration; fs_faults }

let run_schedule ~mode ?max_ops scenario s =
  let buf, sink = Sink.collector () in
  let tracer = Tracer.create sink in
  let cfg = config_of_schedule ~mode ?max_ops s in
  let (_ : Engine.outcome) = Engine.run ~tracer cfg scenario in
  Tracer.close tracer;
  Sink.Collect.contents buf

let default_suite s =
  let horizon =
    Model.max_delivery_delay ~latency:s.fs_latency
      ~jitter:s.fs_faults.Fault.p_jitter
  in
  Props.suite ~horizon ~crashes:s.fs_faults.Fault.p_crashes ()

type violation = {
  v_prop : string;
  v_reason : string;
  v_from_seq : int;
  v_to_seq : int;
  v_original : schedule;
  v_schedule : schedule;
  v_shrink_steps : int;
  v_events : Event.stamped list;
}

type report = { fz_schedules : int; fz_violation : violation option }

let first_fail results =
  List.find_opt
    (fun r -> match r.Prop.c_verdict with Prop.Fail _ -> true | _ -> false)
    results

(* {2 Shrinking} *)

let candidates s =
  let faults =
    List.map (fun p -> { s with fs_faults = p }) (Fault.shrink_plan s.fs_faults)
  in
  let latency =
    if s.fs_latency > 0 then
      { s with fs_latency = 0 }
      :: (if s.fs_latency > 1 then [ { s with fs_latency = s.fs_latency / 2 } ]
          else [])
    else []
  in
  let duration =
    if s.fs_duration <> Model.unit_duration then
      [ { s with fs_duration = Model.unit_duration } ]
    else []
  in
  faults @ latency @ duration

let reproduces ~suite ~max_ops ~mode ~scenario ~prop s =
  let events = run_schedule ~mode ?max_ops scenario s in
  let results = Prop.check (suite s) events in
  List.exists
    (fun r ->
      r.Prop.c_prop = prop
      && match r.Prop.c_verdict with Prop.Fail _ -> true | _ -> false)
    results

let shrink ?(suite = default_suite) ?max_ops ~mode ~scenario ~prop s =
  (* every candidate is strictly smaller, so the descent terminates; the
     step cap only guards against a pathological candidate generator *)
  let max_steps = 64 in
  let rec go s steps =
    if steps >= max_steps then (s, steps)
    else
      match
        List.find_opt
          (reproduces ~suite ~max_ops ~mode ~scenario ~prop)
          (candidates s)
      with
      | Some smaller -> go smaller (steps + 1)
      | None -> (s, steps)
  in
  go s 0

(* {2 The fuzz loop} *)

let fuzz ?(suite = default_suite) ?faults ?max_ops ?(progress = fun _ -> ())
    ~mode ~seed ~count scenario =
  let roster = Compiled.designers (Scenario.compiled scenario ~mode) in
  let root = Rng.create seed in
  let rec go i =
    if i > count then { fz_schedules = count; fz_violation = None }
    else begin
      let rng = Rng.split root in
      let s = gen_schedule ~rng ~roster ?faults () in
      let events = run_schedule ~mode ?max_ops scenario s in
      let results = Prop.check (suite s) events in
      match first_fail results with
      | None ->
        progress i;
        go (i + 1)
      | Some r ->
        let prop = r.Prop.c_prop in
        let min_s, steps = shrink ~suite ?max_ops ~mode ~scenario ~prop s in
        let min_events = run_schedule ~mode ?max_ops scenario min_s in
        let min_results = Prop.check (suite min_s) min_events in
        let reason, from_seq, to_seq =
          match
            List.find_opt (fun r -> r.Prop.c_prop = prop) min_results
          with
          | Some { Prop.c_verdict = Prop.Fail f; _ } ->
            (f.Prop.f_reason, f.Prop.f_from_seq, f.Prop.f_to_seq)
          | _ -> (
            (* defensive: shrink accepted only reproducing candidates *)
            match r.Prop.c_verdict with
            | Prop.Fail f -> (f.Prop.f_reason, f.Prop.f_from_seq, f.Prop.f_to_seq)
            | _ -> ("", 0, 0))
        in
        {
          fz_schedules = i;
          fz_violation =
            Some
              {
                v_prop = prop;
                v_reason = reason;
                v_from_seq = from_seq;
                v_to_seq = to_seq;
                v_original = s;
                v_schedule = min_s;
                v_shrink_steps = steps;
                v_events = min_events;
              };
        }
    end
  in
  go 1

(* {2 Artifacts} *)

let schedule_json s =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int s.fs_seed));
      ("latency", Json.Num (float_of_int s.fs_latency));
      ("duration", Json.Str (Model.duration_to_string s.fs_duration));
      ( "faults",
        Json.Obj
          [
            ("drop", Json.Num s.fs_faults.Fault.p_drop);
            ("dup", Json.Num s.fs_faults.Fault.p_dup);
            ("jitter", Json.Num (float_of_int s.fs_faults.Fault.p_jitter));
            ( "crashes",
              Json.Str (Fault.crashes_to_string s.fs_faults.Fault.p_crashes) );
          ] );
    ]

let write_artifact ~prefix ~scenario ~mode v =
  let trace_path = prefix ^ ".trace.jsonl" in
  let meta_path = prefix ^ ".json" in
  let oc = open_out trace_path in
  List.iter
    (fun ev ->
      output_string oc (Codec.to_line ev);
      output_char oc '\n')
    v.v_events;
  close_out oc;
  let s = v.v_schedule in
  let repro =
    Printf.sprintf
      "teamsim run %s --mode %s --seed %d --latency %d --duration-model %s \
       --drop %g --dup %g --jitter %d%s --trace %s"
      scenario (Dpm.mode_to_string mode) s.fs_seed s.fs_latency
      (Model.duration_to_string s.fs_duration)
      s.fs_faults.Fault.p_drop s.fs_faults.Fault.p_dup
      s.fs_faults.Fault.p_jitter
      (match s.fs_faults.Fault.p_crashes with
      | [] -> ""
      | cs -> Printf.sprintf " --crash-plan '%s'" (Fault.crashes_to_string cs))
      trace_path
  in
  let meta =
    Json.Obj
      [
        ("scenario", Json.Str scenario);
        ("mode", Json.Str (Dpm.mode_to_string mode));
        ("property", Json.Str v.v_prop);
        ("reason", Json.Str v.v_reason);
        ( "witness",
          Json.Obj
            [
              ("from_seq", Json.Num (float_of_int v.v_from_seq));
              ("to_seq", Json.Num (float_of_int v.v_to_seq));
            ] );
        ("schedule", schedule_json v.v_schedule);
        ("original_schedule", schedule_json v.v_original);
        ("shrink_steps", Json.Num (float_of_int v.v_shrink_steps));
        ("events", Json.Num (float_of_int (List.length v.v_events)));
        ("trace", Json.Str trace_path);
        ("repro", Json.Str repro);
      ]
  in
  let oc = open_out meta_path in
  output_string oc (Json.to_string meta);
  output_char oc '\n';
  close_out oc;
  [ trace_path; meta_path ]
