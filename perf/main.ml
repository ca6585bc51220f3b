(* The repo benchmark. One run = one workload for --seconds seconds:

     main.exe --workload W --seed N --seconds S --trace 0|1

   The last stdout line is the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   untraced, the per-layer metrics traced. See README.md. *)

open Common

let usage =
  "main.exe --workload W --seed N --seconds S --trace 0|1 [--scale F] \
   [--teamsim PATH]"

(* Every declared metric, in declaration order. A traced run prints 0
   for the layers its workload does not exercise. *)
let result_line ~traced ~correct (o : outcome) =
  let names = if traced then Spec.per_layer else Spec.end_to_end in
  let metric (name, unit_) =
    let value =
      match List.assoc_opt name o.metrics with
      | Some v -> v
      | None when traced -> 0.
      | None -> failwith ("no value for " ^ name)
    in
    (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ])
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name names) then failwith ("undeclared metric " ^ name))
    o.metrics;
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int o.attempted));
         ("failed", Json.Num (float_of_int o.failed));
         ("metrics", Json.Obj (List.map metric names));
       ])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. in
  let trace = ref 0 and scale = ref 1. in
  let teamsim = ref (Filename.concat "_build" "default/bin/teamsim.exe") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured time (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead");
      ("--scale", Arg.Set_float scale, "F fixture scale, for the smoke test");
      ("--teamsim", Arg.Set_string teamsim, "PATH the teamsim binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Spec.workloads) then begin
    Printf.eprintf "unknown workload %S (one of %s)\n" !workload
      (String.concat ", " Spec.workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  if not (Sys.file_exists !teamsim) then begin
    Printf.eprintf "no teamsim binary at %s\n" !teamsim;
    exit 2
  end;
  Adpm_serve.Wire.ignore_sigpipe ();
  let base = ".perf_run" in
  if not (Sys.file_exists base) then mkdir base;
  let run_dir = Filename.concat base (string_of_int (Unix.getpid ())) in
  rm_rf run_dir;
  mkdir run_dir;
  let ctx =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      scale = !scale;
      teamsim = !teamsim;
      run_dir;
    }
  in
  let run =
    match ctx.workload with
    | "teamsimd-churn" -> Churn.run
    | "teamsimd-recovery" -> Recovery.run
    | _ -> Sims.run
  in
  let o =
    Fun.protect
      ~finally:(fun () ->
        reap_all ();
        rm_rf run_dir;
        try Unix.rmdir base with Unix.Unix_error _ -> ())
      (fun () -> run ctx)
  in
  Printf.eprintf "perf: counts %s %s\n%!" ctx.workload
    (Json.to_string (Json.Obj o.counts));
  let unmeasured =
    List.filter (fun (_, v) -> not (Float.is_finite v)) o.metrics |> List.map fst
  in
  if unmeasured <> [] then complain "no finite value for %s" (String.concat ", " unmeasured);
  let correct = o.failed = 0 && o.attempted > 0 && unmeasured = [] in
  print_endline (result_line ~traced:ctx.traced ~correct o);
  exit (if correct then 0 else 1)
