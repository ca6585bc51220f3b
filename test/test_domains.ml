(* Tests for the multi-seed runner and its domain pool: randomized
   equivalence (Engine.run_many at jobs 2 and 4 returns the summary list
   of jobs 1, bit for bit and in seed order, on every scenario in both
   modes), and the Dpool failure contract — a raising item surfaces as
   Worker_error with the lowest failing index, and a raising run as a
   Failure naming its seed, at every jobs value. *)

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

let scenarios =
  [
    Simple.scenario;
    Lna.scenario;
    Sensor.scenario;
    Receiver.scenario;
    Generated.scenario (Generated.default_params ~subsystems:4 ~vars:3);
  ]

(* The seed lists are randomized (drawn fresh per scenario x mode cell from
   a master PRNG) so repeated CI runs sweep different corners of seed
   space; the master seed is printed in every failure message so any
   discrepancy is reproducible with ADPM_TEST_SEED. *)
let master_seed =
  match Sys.getenv_opt "ADPM_TEST_SEED" with
  | Some s -> (try int_of_string s with _ -> 0x5eed)
  | None -> 0x5eed

let test_jobs_equivalence () =
  let rng = Random.State.make [| master_seed |] in
  List.iter
    (fun scenario ->
      List.iter
        (fun mode ->
          let seeds =
            List.init 4 (fun _ -> 1 + Random.State.int rng 10_000)
          in
          let cfg = Config.default ~mode ~seed:0 in
          let reference = Engine.run_many ~jobs:1 cfg scenario ~seeds in
          Alcotest.(check (list int))
            "jobs=1 keeps seed order" seeds
            (List.map (fun s -> s.Metrics.s_seed) reference);
          List.iter
            (fun jobs ->
              List.iter2
                (fun want have ->
                  Alcotest.check summary
                    (Printf.sprintf "%s/%s jobs=%d seed=%d (ADPM_TEST_SEED=%d)"
                       scenario.Scenario.sc_name (Dpm.mode_to_string mode) jobs
                       want.Metrics.s_seed master_seed)
                    want have)
                reference
                (Engine.run_many ~jobs cfg scenario ~seeds))
            [ 2; 4 ])
        [ Dpm.Conventional; Dpm.Adpm ])
    scenarios

let test_dpool_identity () =
  let items = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let f x = string_of_int (x * x) in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d keeps order" jobs)
        expected
        (Dpool.map ~jobs ~f items))
    [ 1; 2; 3; 8; 100 ];
  Alcotest.(check (list string))
    "empty input" []
    (Dpool.map ~jobs:4 ~f:(fun (_ : int) -> "x") [])

let test_dpool_worker_raises_lowest_index () =
  (* Many items, several raising: the reported index must be the lowest
     failing one regardless of which domain got there first. *)
  let items = List.init 64 (fun i -> i) in
  let f i = if i mod 7 = 3 then failwith (Printf.sprintf "boom %d" i) else i in
  List.iter
    (fun jobs ->
      match Dpool.map ~jobs ~f items with
      | (_ : int list) -> Alcotest.failf "jobs=%d: expected Worker_error" jobs
      | exception Dpool.Worker_error { index; message } ->
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d: lowest failing index" jobs)
          3 index;
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d: message carries the exception" jobs)
          true
          (contains message "worker raised" && contains message "boom 3"))
    [ 1; 2; 4; 16 ]

let test_domains_failure_names_seed () =
  (* A deterministically-raising build surfaces as a Failure naming the
     lowest failing seed — the same message at jobs 1, where the calling
     domain runs every seed, as with spawned domains. *)
  let broken =
    Scenario.make ~name:"broken" ~description:"always fails" (fun ~mode:_ ->
        failwith "synthetic build failure")
  in
  let cfg = Config.default ~mode:Dpm.Adpm ~seed:0 in
  let message jobs =
    match Engine.run_many ~jobs cfg broken ~seeds:[ 7; 8; 9 ] with
    | (_ : Metrics.run_summary list) ->
      Alcotest.failf "jobs=%d: expected Failure" jobs
    | exception Failure msg -> msg
  in
  let at_one = message 1 in
  Alcotest.(check string) "jobs=1 message"
    ("Engine.run_many: worker failed for seed 7: worker raised: "
    ^ "Failure(\"synthetic build failure\")")
    at_one;
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d message equals jobs=1" jobs)
        at_one (message jobs))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "randomized jobs equivalence" `Slow
      test_jobs_equivalence;
    Alcotest.test_case "dpool map is order-preserving List.map" `Quick
      test_dpool_identity;
    Alcotest.test_case "dpool raise surfaces lowest index" `Quick
      test_dpool_worker_raises_lowest_index;
    Alcotest.test_case "domains run_many failure names seed" `Quick
      test_domains_failure_names_seed;
  ]
