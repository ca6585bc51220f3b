(* Tests for the parallel multi-seed runner: the domain pool's map
   contract (order, empty input, a raising item surfaces as Worker_error
   at the lowest failing index, at every jobs value) and the headline
   guarantee — Engine.run_many returns, for any jobs value, exactly the
   summaries of one Engine.run per seed, in seed order, on every scenario
   in both modes. *)

open Adpm_core
open Adpm_teamsim
open Adpm_scenarios
module Dpool = Adpm_parallel.Dpool

let summary =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Metrics.summary_line s))
    ( = )

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* {2 Pool} *)

let test_pool_identity () =
  let items = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let f x = string_of_int (x * x) in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d keeps order" jobs)
        expected (Dpool.map ~jobs ~f items))
    [ 1; 2; 3; 8; 100 ]

let test_pool_empty () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d empty input" jobs)
        []
        (Dpool.map ~jobs ~f:(fun (_ : int) -> "x") []))
    [ 1; 4 ]

let check_worker_error name expected_index f =
  match f () with
  | (_ : string list) -> Alcotest.failf "%s: expected Worker_error" name
  | exception Dpool.Worker_error { index; message } ->
    Alcotest.(check int) (name ^ ": failing index") expected_index index;
    Alcotest.(check bool)
      (name ^ ": message names the exception")
      true
      (contains message "worker raised")

let test_pool_worker_raises () =
  (* Item 3 fails; the pool must raise naming it, on spawned domains and
     on the calling domain alone. *)
  let f x = if x = 30 then failwith "boom on 30" else string_of_int x in
  let items = [ 0; 10; 20; 30; 40 ] in
  check_worker_error "jobs=2" 3 (fun () -> Dpool.map ~jobs:2 ~f items);
  check_worker_error "jobs=1" 3 (fun () -> Dpool.map ~jobs:1 ~f items)

let test_pool_worker_raises_lowest_index () =
  let f x = if x mod 2 = 0 then failwith "even" else string_of_int x in
  check_worker_error "many failures" 1 (fun () ->
      Dpool.map ~jobs:3 ~f [ 1; 2; 3; 4; 5; 6 ])

(* {2 Engine.run_many equivalence} *)

let scenarios =
  [
    Simple.scenario;
    Lna.scenario;
    Sensor.scenario;
    Receiver.scenario;
    Generated.scenario (Generated.default_params ~subsystems:4 ~vars:3);
  ]

let test_equivalence () =
  let seeds = [ 1; 2; 3; 4 ] in
  List.iter
    (fun scenario ->
      List.iter
        (fun mode ->
          let cfg = Config.default ~mode ~seed:0 in
          let sequential =
            List.map
              (fun seed ->
                (Engine.run (Config.with_seed cfg seed) scenario)
                  .Engine.o_summary)
              seeds
          in
          List.iter
            (fun jobs ->
              Alcotest.(check (list summary))
                (Printf.sprintf "%s/%s jobs=%d" scenario.Scenario.sc_name
                   (Dpm.mode_to_string mode) jobs)
                sequential
                (Engine.run_many ~jobs cfg scenario ~seeds))
            [ 2; 4 ])
        [ Dpm.Conventional; Dpm.Adpm ])
    scenarios

let test_equivalence_preserves_seed_order () =
  let seeds = [ 9; 3; 7; 1; 5 ] in
  let cfg = Config.default ~mode:Dpm.Adpm ~seed:0 in
  let summaries = Engine.run_many ~jobs:3 cfg Sensor.scenario ~seeds in
  Alcotest.(check (list int))
    "seed order preserved" seeds
    (List.map (fun s -> s.Metrics.s_seed) summaries)

let test_run_many_failure_names_seed () =
  (* A scenario whose build raises makes every seed fail; the engine must
     report the lowest-indexed seed, deterministically. *)
  let broken =
    Scenario.make ~name:"broken" ~description:"always fails" (fun ~mode:_ ->
        failwith "synthetic build failure")
  in
  let cfg = Config.default ~mode:Dpm.Adpm ~seed:0 in
  match Engine.run_many ~jobs:2 cfg broken ~seeds:[ 7; 8; 9 ] with
  | (_ : Metrics.run_summary list) -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names seed 7" msg)
      true (contains msg "seed 7")

let suite =
  [
    ("pool identity and order", `Quick, test_pool_identity);
    ("pool empty input", `Quick, test_pool_empty);
    ("pool worker raises", `Quick, test_pool_worker_raises);
    ("pool lowest failing index", `Quick, test_pool_worker_raises_lowest_index);
    ("parallel equals sequential", `Slow, test_equivalence);
    ("seed order preserved", `Quick, test_equivalence_preserves_seed_order);
    ("worker failure names seed", `Quick, test_run_many_failure_names_seed);
  ]
