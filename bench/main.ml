(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Figs. 2-4 walkthrough, Fig. 7 profiles, Fig. 8
   statistics window, Fig. 9 performance/penalty aggregates, Fig. 10
   tightness sweep, plus the heuristic ablations and the extension
   studies), then runs bechamel micro-benchmarks of the underlying
   engines. Ends with the wall time of every section.

   Exits nonzero when the domain runner's Fig. 9 cells diverge from the
   sequential pass, or when a non-fast run with >= 2 jobs on >= 2 cores
   finds the domain runner slower than the sequential pass.

   Environment knobs (positive integers; anything else is an error):
     ADPM_BENCH_SEEDS  seeds per Fig. 9 cell (default 60, as in the paper)
     ADPM_BENCH_FAST   set to shrink every experiment (CI smoke mode)
     ADPM_BENCH_JOBS   worker domains for multi-seed experiments
                       (default: one per CPU core) *)

open Adpm_experiments
module Dpool = Adpm_parallel.Dpool

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 1)
    fmt

let getenv_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ -> die "%s must be a positive integer (got %S)" name s)

let fast = Sys.getenv_opt "ADPM_BENCH_FAST" <> None

let section title = Printf.printf "\n%s\n%s\n\n" title (String.make 72 '=')

let timings : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  timings := (name, Unix.gettimeofday () -. t0) :: !timings;
  v

let wall name = List.assoc name !timings

let () =
  let fig9_seeds = getenv_int "ADPM_BENCH_SEEDS" (if fast then 10 else 60) in
  let njobs = getenv_int "ADPM_BENCH_JOBS" (Dpool.cpu_count ()) in
  let fig7_seeds = if fast then 5 else 20 in
  let fig10_seeds = if fast then 3 else 10 in
  let ablation_seeds = if fast then 5 else 15 in

  section "Figures 2-4: Section 2.4 walkthrough";
  print_string (timed "fig234" (fun () -> Exp_fig234.render (Exp_fig234.run ())));

  section "Figure 7: per-operation profiles (simplified case)";
  print_string
    (timed "fig7" (fun () -> Exp_fig7.render (Exp_fig7.run ~seeds:fig7_seeds ())));

  section "Figure 8: design process statistics window";
  print_string (timed "fig8" (fun () -> Exp_fig8.render (Exp_fig8.run ())));

  section "Figure 9: performance and computational penalty";
  let fig9 = timed "fig9" (fun () -> Exp_fig9.run ~seeds:fig9_seeds ()) in
  print_string (Exp_fig9.render fig9);

  (* Per-run sample lists, not whole aggregates: Stats_acc carries an
     internal sort cache whose state is irrelevant to equality. *)
  let fingerprint (c : Adpm_teamsim.Report.aggregate) =
    let samples = Adpm_util.Stats_acc.to_list in
    ( c.Adpm_teamsim.Report.a_scenario,
      c.Adpm_teamsim.Report.a_mode,
      c.Adpm_teamsim.Report.a_runs,
      c.Adpm_teamsim.Report.a_completed,
      List.map samples
        [
          c.Adpm_teamsim.Report.a_ops;
          c.Adpm_teamsim.Report.a_evals;
          c.Adpm_teamsim.Report.a_evals_per_op;
          c.Adpm_teamsim.Report.a_spins;
          c.Adpm_teamsim.Report.a_violations;
        ] )
  in
  let cells r =
    [
      r.Exp_fig9.sensor_conv; r.Exp_fig9.sensor_adpm;
      r.Exp_fig9.receiver_conv; r.Exp_fig9.receiver_adpm;
    ]
  in
  let agrees_with_fig9 r =
    List.for_all2 (fun a b -> fingerprint a = fingerprint b) (cells r)
      (cells fig9)
  in

  section "Figure 10: specification-tightness sweep";
  print_string
    (timed "fig10" (fun () ->
         Exp_fig10.render (Exp_fig10.run ~seeds:fig10_seeds ~jobs:njobs ())));

  section "Ablations: ADPM heuristics, DCM consistency";
  print_string
    (timed "ablation" (fun () ->
         Exp_ablation.render
           (Exp_ablation.run ~seeds:ablation_seeds ~jobs:njobs ())));

  section "Scaling study (extension): hardness vs acceleration and penalty";
  print_string
    (timed "scaling" (fun () ->
         Exp_scaling.render
           (Exp_scaling.run ~seeds:(if fast then 3 else 8) ~jobs:njobs ())));

  section "Adaptability study (extension): requirement shifts mid-run";
  print_string
    (timed "adapt" (fun () ->
         Exp_adapt.render
           (Exp_adapt.run ~seeds:(if fast then 2 else 8) ~jobs:njobs ())));

  section "Notification-latency sweep (extension): ADPM advantage vs lag";
  print_string
    (timed "latency" (fun () ->
         Exp_latency.render
           (Exp_latency.run ~seeds:(if fast then 3 else 20) ~jobs:njobs ())));

  section "Fault-injection sweep (extension): completion vs notification loss";
  print_string
    (timed "faults" (fun () ->
         Exp_faults.render
           (Exp_faults.run ~seeds:(if fast then 3 else 20) ~jobs:njobs ())));

  (* Domain runner: the Fig. 9 cells again on the domain pool. Its jobs
     are forced to >= 2 so every bench run exercises the pool's
     bit-identity; a real speedup is only expected — and only gated —
     when the host actually has >= 2 cores and the run is not a fast
     smoke, whose millisecond cells are dominated by spawn overhead and
     timer noise. It runs LAST among the timed experiment sections on
     purpose: spawning domains permanently grows the runtime's
     multi-domain GC state, which measurably slows the sequential
     sections that follow. *)
  let djobs = max 2 njobs in
  let cores = Dpool.cpu_count () in
  section
    (Printf.sprintf
       "Domain runner: Fig. 9 cells at jobs=%d (shared memory) vs jobs=1"
       djobs);
  let fig9_dom =
    timed "fig9_domains" (fun () -> Exp_fig9.run ~seeds:fig9_seeds ~jobs:djobs ())
  in
  let speedup = wall "fig9" /. wall "fig9_domains" in
  let agrees = agrees_with_fig9 fig9_dom in
  Printf.printf
    "jobs=%d (%d core(s)): sequential %.2fs, domains %.2fs -> speedup %.2fx; \
     results %s\n"
    djobs cores (wall "fig9") (wall "fig9_domains") speedup
    (if agrees then "bit-identical" else "DIVERGED");

  section "Micro-benchmarks (bechamel)";
  timed "microbench" (fun () -> Microbench.run ~fast ());

  section "Wall time per section";
  List.iter
    (fun (name, dt) -> Printf.printf "%-14s %8.2fs\n" name dt)
    (List.rev !timings);

  if not agrees then
    die "the domain runner's Fig. 9 cells diverged from the sequential pass";
  if cores >= 2 && (not fast) && speedup < 1. then
    die "domains speedup %.2fx < 1 with %d jobs on %d cores" speedup djobs cores
