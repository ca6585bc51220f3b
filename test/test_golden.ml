(* Bit-identity pins: MD5 digests of complete traces, summary lines and an
   interactive session's replies over a fixed matrix of runs.

   The table below was recorded from the code before the DPM transition
   moved to dense arrays; any change to the order or content of a trace
   event, a summary line or a reply shows up here as a digest mismatch.
   A deliberate trace-format change re-records the table: run the suite,
   and copy the "got" digests of the failure report after checking the
   new outputs by hand. *)

open Adpm_core
open Adpm_teamsim
open Adpm_trace
open Adpm_scenarios

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* every trace line, then the CLI's summary line *)
let run_digest cfg scenario_name =
  let scenario = Registry.resolve scenario_name in
  let buf, sink = Sink.collector () in
  let tracer = Tracer.create sink in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Tracer.close tracer)
      (fun () -> Engine.run ~tracer cfg scenario)
  in
  digest_lines
    (List.map Codec.to_line (Sink.Collect.contents buf)
    @ [ Metrics.summary_line outcome.Engine.o_summary ])

let faulty cfg =
  {
    cfg with
    Config.latency = 2;
    faults = { Adpm_fault.Fault.none with p_drop = 0.1; p_dup = 0.1; p_jitter = 2 };
  }

let headroom cfg = { cfg with Config.value_policy = Config.Headroom; latency = 2 }

let gen_specs =
  [
    "gen:n=8,k=3,seed=1,topology=random-0.4,coupling=0.25";
    "gen:n=16,k=3,seed=1,topology=random-0.2,coupling=0.25";
  ]

let shift_plan = "p_budget>=20@10"

let modes = [ ("conventional", Dpm.Conventional); ("adpm", Dpm.Adpm) ]

let run_cases =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun (mlabel, mode) ->
          let base = Config.default ~mode ~seed:1 in
          [
            (Printf.sprintf "%s/%s" name mlabel, fun () -> run_digest base name);
            ( Printf.sprintf "%s/%s/faulty" name mlabel,
              fun () -> run_digest (faulty base) name );
          ])
        modes)
    [ "sensor"; "receiver"; "lna"; "simple" ]
  @ List.map
      (fun spec ->
        ( spec ^ "/adpm/headroom",
          fun () -> run_digest (headroom (Config.default ~mode:Dpm.Adpm ~seed:1)) spec ))
      gen_specs
  @ List.map
      (fun (mlabel, mode) ->
        ( "gen:n=3,k=2/" ^ mlabel ^ "/shift",
          fun () ->
            let shifts =
              match Shift.plan_of_string shift_plan with
              | Ok p -> p
              | Error e -> failwith e
            in
            run_digest { (Config.default ~mode ~seed:1) with Config.shifts } "gen:n=3,k=2" ))
      modes

(* a player session mixing reads, synthesis, verification, simulated
   teammates and the failure replies *)
let session_script =
  [
    "status"; "props"; "conflicts"; "suggest"; "auto"; "step"; "verify";
    "set nosuch 1"; "set 3"; "browse nothing"; "auto"; "step"; "status";
    "conflicts"; "auto"; "step"; "auto"; "step"; "status";
  ]

let session_digest mode =
  let buf, sink = Sink.collector () in
  let tracer = Tracer.create sink in
  let s = Interactive.create ~tracer ~mode ~seed:1 Sensor.scenario ~designer:"analog" in
  let replies =
    List.map
      (fun line ->
        let reply =
          match Interactive.execute s line with
          | Ok out -> "ok " ^ out
          | Error msg -> "error " ^ msg
        in
        Interactive.prompt s ^ " " ^ line ^ "\n" ^ reply)
      session_script
  in
  Tracer.close tracer;
  digest_lines (replies @ List.map Codec.to_line (Sink.Collect.contents buf))

let session_cases =
  List.map
    (fun (mlabel, mode) ->
      ("interactive/sensor/analog/" ^ mlabel, fun () -> session_digest mode))
    modes

let expected =
  [
    ("sensor/conventional", "b541814f2ff07d1b9d6da0937461e717");
    ("sensor/conventional/faulty", "091200e1efb952de0a16f88b5461fb50");
    ("sensor/adpm", "603efa470f573cd925db9885ef4951b7");
    ("sensor/adpm/faulty", "369a3a5fa5fc7b559d93ec98857a7c2c");
    ("receiver/conventional", "e6a587cc648af99bce9ff57821a073b4");
    ("receiver/conventional/faulty", "fc321c64adcdc5ecacbaf5ac61252344");
    ("receiver/adpm", "404edeb78ec76190bb52b1dcdfd78c4c");
    ("receiver/adpm/faulty", "e204ac2573d55e435241e90cad10a3ab");
    ("lna/conventional", "20ea1fa86fe98cc427c69e1e9895fcac");
    ("lna/conventional/faulty", "9ccda3d97e935f6a1f9ce4e54474f324");
    ("lna/adpm", "03d7c882fb833e73afda53e6626bd9aa");
    ("lna/adpm/faulty", "5f43eed90a4e9f4ffd99db90eb74046e");
    ("simple/conventional", "2de84438394d7ad0801d90ed12685471");
    ("simple/conventional/faulty", "46ca7a063a87fbcc67775bbd7bf269c1");
    ("simple/adpm", "2c156a0007f14c62e9fe1de7d3de68fc");
    ("simple/adpm/faulty", "7fb9e5a9928a6b45562bdc210a3805fc");
    ("gen:n=8,k=3,seed=1,topology=random-0.4,coupling=0.25/adpm/headroom", "f9395b6b767e526cd6a25bc22f780741");
    ("gen:n=16,k=3,seed=1,topology=random-0.2,coupling=0.25/adpm/headroom", "467a1fd73f9ebdc953f3a5d311b92596");
    ("gen:n=3,k=2/conventional/shift", "5afa6d563579d6d49728d77820ad49bf");
    ("gen:n=3,k=2/adpm/shift", "6a20a4d996ff5d59e9592ad683b20415");
    ("interactive/sensor/analog/conventional", "9da592689d9375452d474b38b4b0b60a");
    ("interactive/sensor/analog/adpm", "70076be5037830571f5961b74e9b2fac");
  ]

let test_golden () =
  let got = List.map (fun (name, f) -> (name, f ())) (run_cases @ session_cases) in
  let bad =
    List.filter
      (fun (name, d) -> List.assoc_opt name expected <> Some d)
      got
  in
  if bad <> [] then
    Alcotest.failf "%d of %d digests differ; got:\n%s" (List.length bad)
      (List.length got)
      (String.concat "\n"
         (List.map (fun (name, d) -> Printf.sprintf "    (%S, %S);" name d) got))

let suite = [ Alcotest.test_case "traces, summaries and replies" `Quick test_golden ]
