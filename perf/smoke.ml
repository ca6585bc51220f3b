(* The benchmark's tier-1 smoke test:

     smoke.exe MAIN_EXE TEAMSIM_EXE BENCHMARK.json

   Runs every workload declared in BENCHMARK.json at 1/100 scale, untraced
   and traced, and checks each result object: correct, no failed items,
   and exactly the declared metrics (end-to-end untraced, per-layer
   traced), each with its declared unit and a finite value. *)

module Json = Adpm_trace.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("perf-smoke FAIL: " ^ m))
    fmt

let member_list key j =
  match Option.bind (Json.member key j) Json.to_list with
  | Some l -> l
  | None -> failwith ("BENCHMARK.json lacks " ^ key)

let str key j = Option.get (Option.bind (Json.member key j) Json.to_str)

let run_one main teamsim ~workload ~trace =
  let log = Printf.sprintf "smoke-%s-%d.log" workload trace in
  let out = Printf.sprintf "smoke-%s-%d.out" workload trace in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_log = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [|
      main; "--workload"; workload; "--seed"; "1"; "--seconds"; "0.05"; "--trace";
      string_of_int trace; "--scale"; "0.01"; "--teamsim"; teamsim;
    |]
  in
  let pid = Unix.create_process main args Unix.stdin fd_out fd_log in
  Unix.close fd_out;
  Unix.close fd_log;
  let _, status = Unix.waitpid [] pid in
  let read f = In_channel.with_open_text f In_channel.input_all in
  let stdout = read out and stderr = read log in
  Sys.remove out;
  Sys.remove log;
  if status <> Unix.WEXITED 0 then begin
    fail "%s trace=%d exited abnormally:\n%s" workload trace stderr;
    None
  end
  else
    match
      List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' stdout))
    with
    | [] ->
      fail "%s trace=%d printed no result" workload trace;
      None
    | last :: _ -> (
      match Json.parse last with
      | Ok j -> Some j
      | Error m ->
        fail "%s trace=%d: bad result line: %s" workload trace m;
        None)

let check ~workload ~trace declared result =
  let ctx = Printf.sprintf "%s trace=%d" workload trace in
  (match result with
  | Json.Obj fields ->
    if List.map fst fields <> [ "correct"; "attempted"; "failed"; "metrics" ] then
      fail "%s: result keys are %s" ctx (String.concat "," (List.map fst fields))
  | _ -> fail "%s: result is not an object" ctx);
  if Option.bind (Json.member "correct" result) Json.to_bool <> Some true then
    fail "%s: not correct" ctx;
  (match Option.bind (Json.member "attempted" result) Json.to_int with
  | Some n when n >= 1 -> ()
  | _ -> fail "%s: attempted is not a positive integer" ctx);
  if Option.bind (Json.member "failed" result) Json.to_int <> Some 0 then
    fail "%s: failed items" ctx;
  match Json.member "metrics" result with
  | Some (Json.Obj metrics) ->
    let names = List.map fst metrics and want = List.map fst declared in
    if List.sort compare names <> List.sort compare want then
      fail "%s: metrics %s, declared %s" ctx (String.concat "," names)
        (String.concat "," want);
    List.iter
      (fun (name, unit_) ->
        match List.assoc_opt name metrics with
        | None -> ()
        | Some m -> (
          if Option.bind (Json.member "unit" m) Json.to_str <> Some unit_ then
            fail "%s: %s has unit other than %s" ctx name unit_;
          match Option.bind (Json.member "value" m) Json.to_float with
          | Some v when Float.is_finite v -> ()
          | _ -> fail "%s: %s has no finite value" ctx name))
      declared
  | _ -> fail "%s: no metrics object" ctx

let () =
  let main, teamsim, bench_path =
    (* dune passes paths relative to the rule's directory *)
    let local p = if Filename.is_implicit p then Filename.concat "." p else p in
    match Sys.argv with
    | [| _; m; t; b |] -> (local m, local t, b)
    | _ ->
      prerr_endline "usage: smoke.exe MAIN_EXE TEAMSIM_EXE BENCHMARK.json";
      exit 2
  in
  let bench =
    match Json.parse (In_channel.with_open_text bench_path In_channel.input_all) with
    | Ok j -> j
    | Error m -> failwith m
  in
  let declared key = List.map (fun m -> (str "name" m, str "unit" m)) (member_list key bench) in
  let workloads = List.map (str "name") (member_list "workloads" bench) in
  let runs = ref 0 in
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, key) ->
          incr runs;
          match run_one main teamsim ~workload ~trace with
          | Some result -> check ~workload ~trace (declared key) result
          | None -> ())
        [ (0, "end_to_end"); (1, "per_layer") ])
    workloads;
  if !failures > 0 then exit 1
  else Printf.printf "perf-smoke OK: %d runs\n" !runs
