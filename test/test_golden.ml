(* Bit-identity pins: MD5 digests of complete traces, summary lines and an
   interactive session's replies over a fixed matrix of runs.

   The first table below was recorded from the code before the DPM
   transition moved to dense arrays; any change to the order or content
   of a trace event, a summary line or a reply shows up here as a digest
   mismatch. A deliberate trace-format change re-records that table: run
   the suite, and copy the "got" digests of the failure report after
   checking the new outputs by hand. *)

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
    ("receiver/conventional/faulty", "80a2f9605b4477c91be738713239b9fb");
    ("receiver/adpm", "404edeb78ec76190bb52b1dcdfd78c4c");
    ("receiver/adpm/faulty", "e204ac2573d55e435241e90cad10a3ab");
    ("lna/conventional", "20ea1fa86fe98cc427c69e1e9895fcac");
    ("lna/conventional/faulty", "88d9a29ddb3157bbe382e30e733b4613");
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

(* {2 The lockstep fixture}

   Summaries of the synchronous loop the discrete-event engine replaced,
   in which every designer observed every outcome right after it
   executed. The table was recorded from that loop, before it was
   removed, as the MD5 of [Export.summary_json] (per-op profile
   included) and the makespan, which the loop defined as the operation
   count. At latency 0 under the unit duration model Engine.run must
   reproduce every entry, both without a fault plan (the [des] case
   "latency-0 DES = lockstep (all scenarios)") and with a zero-rate plan
   built field by field, as the CLI builds it from default flags (the
   [fault] case "zero-fault bit-identity"). *)

let lockstep_digest outcome =
  digest_lines
    [
      Export.summary_json outcome.Engine.o_summary;
      string_of_int outcome.Engine.o_makespan;
    ]

let lockstep_cfg ?(policy = Config.Endpoint) mode seed =
  {
    (Config.default ~mode ~seed) with
    Config.max_ops = 500;
    latency = 0;
    duration_model = Adpm_sim.Model.unit_duration;
    value_policy = policy;
  }

let lockstep_cases =
  List.concat_map
    (fun (label, scenario) ->
      List.concat_map
        (fun mode ->
          List.map
            (fun seed ->
              ( Printf.sprintf "%s/%s/%d" label (Dpm.mode_to_string mode) seed,
                scenario,
                lockstep_cfg mode seed ))
            [ 1; 2; 3; 4; 5 ])
        [ Dpm.Adpm; Dpm.Conventional ])
    [
      ("simple", Simple.scenario);
      ("lna", Lna.scenario);
      ("sensor", Sensor.scenario);
      ("receiver", Receiver.scenario);
      ("gen:n=4,k=3", Generated.scenario (Generated.default_params ~subsystems:4 ~vars:3));
    ]
  @ List.map
      (fun seed ->
        ( Printf.sprintf "gen:n=3,k=2/headroom/ADPM/%d" seed,
          Generated.scenario (Generated.default_params ~subsystems:3 ~vars:2),
          lockstep_cfg ~policy:Config.Headroom Dpm.Adpm seed ))
      [ 1; 2; 3 ]

let lockstep_expected =
  [
    ("simple/ADPM/1", "bef7703b6757a15bb9d883f909f5faa2");
    ("simple/ADPM/2", "2e116f2bd13cd0934bbf1f25e35fa7a9");
    ("simple/ADPM/3", "871a6ef76d8c6ab15a33921c3e5bc424");
    ("simple/ADPM/4", "67af4eec68cf7befd700a21a3c07ca99");
    ("simple/ADPM/5", "22dc1692b7e9e8a728df8a4c135945f6");
    ("simple/conventional/1", "007cb0e3b9e6ebc2f4491516d7c05177");
    ("simple/conventional/2", "cd30248729c6add54ed33106b43337e9");
    ("simple/conventional/3", "c32ee8d7eb64f707fbe27bf742f3abdf");
    ("simple/conventional/4", "a9e79ba71e9064014a4a243544f15561");
    ("simple/conventional/5", "b94c114d4d5d7deba3b8dc80e8832883");
    ("lna/ADPM/1", "31a2c8cdb55eea9f87e0fa1f9705ab3a");
    ("lna/ADPM/2", "5b3b4b92393b55a7dce1ec3249752671");
    ("lna/ADPM/3", "4d763687063626dfd69fcdb3a9916537");
    ("lna/ADPM/4", "490a83d49b742b32c98fe660d0dd7c8c");
    ("lna/ADPM/5", "0a33c5dfd4e618f96568f81fb02e31b9");
    ("lna/conventional/1", "690b48a36a20481f8ac5ff4cf2ed987b");
    ("lna/conventional/2", "0e3cc5678f3f26e264a34b960312b0d4");
    ("lna/conventional/3", "0ce0cb61806e54a9201e70baf5d974b4");
    ("lna/conventional/4", "08bff47aea40dfa221fd3219c1b34d7c");
    ("lna/conventional/5", "74f9f816ed0b9f62a67eeec453c6827f");
    ("sensor/ADPM/1", "0144668d781659763dfe8c74013166b7");
    ("sensor/ADPM/2", "b02aaff576c3b296d2489b577d27e0c4");
    ("sensor/ADPM/3", "40d5dd923397a908cd3f2c72639c790b");
    ("sensor/ADPM/4", "4c4ee416a923f91e9f64887cb78b4617");
    ("sensor/ADPM/5", "ffd40d2847e6682c4c51c0a06a1645b0");
    ("sensor/conventional/1", "f5c4a5033dcb3af9388265e606268a16");
    ("sensor/conventional/2", "0678463cda0e1733318c00ffd087c109");
    ("sensor/conventional/3", "2d8b6d617d7fe03186d60532daad856e");
    ("sensor/conventional/4", "5a866f5def65693a21468f8c06cfce1c");
    ("sensor/conventional/5", "b5d9d78d6bbd6940553ad5f5af905679");
    ("receiver/ADPM/1", "c97968a791c67ddc5c8d9023d48ac58d");
    ("receiver/ADPM/2", "d9cd4fe54f96dd5bedffa958c89db331");
    ("receiver/ADPM/3", "451e46e5c28ab66a4db1ea3555a216b8");
    ("receiver/ADPM/4", "af03ef472d8e2ced5c3b5313950a695f");
    ("receiver/ADPM/5", "aefd2bdd28c4892f4b1878a0ec95f104");
    ("receiver/conventional/1", "85bd88ec39e8561be08c09df23a45d36");
    ("receiver/conventional/2", "199d8bcdeff6ffbe0db4703b0c9d2857");
    ("receiver/conventional/3", "678f9d26b229985d5262dfe37c321153");
    ("receiver/conventional/4", "818d09e0687d6ff7a85b7c9d92d8195f");
    ("receiver/conventional/5", "f956e5c3c511ccd80853aa2f992f8657");
    ("gen:n=4,k=3/ADPM/1", "235904380f621e558e89f501cdfe5592");
    ("gen:n=4,k=3/ADPM/2", "7e7d58bb62b23405cc6d98d2b05ef386");
    ("gen:n=4,k=3/ADPM/3", "a5f700d74f4fb2800dd5c3e341dc8b25");
    ("gen:n=4,k=3/ADPM/4", "20d8307508d1281cd43e3213958acd66");
    ("gen:n=4,k=3/ADPM/5", "aec74b4db5dc78a00b121b751d8fd5dd");
    ("gen:n=4,k=3/conventional/1", "bdd89dfd27125a950302b0a666745d60");
    ("gen:n=4,k=3/conventional/2", "a80a483cded7b525996d0c5d258e7fcb");
    ("gen:n=4,k=3/conventional/3", "d1bf8d7ca0b914412a9f7aef1f54f019");
    ("gen:n=4,k=3/conventional/4", "b4304bb036ba746dcb8693e537b96b4c");
    ("gen:n=4,k=3/conventional/5", "4589e26dc324121375c26caa550157b0");
    ("gen:n=3,k=2/headroom/ADPM/1", "d151278fa4fbe0e64ccccb1323aaf68e");
    ("gen:n=3,k=2/headroom/ADPM/2", "4373287d47d94e6d3de9d52f6afd163d");
    ("gen:n=3,k=2/headroom/ADPM/3", "7ec4ee1646c850d2cba1fab1b08ebf44");
  ]

(* Runs every fixture case with [adjust] applied to its configuration
   and fails listing each one whose digest differs from the table. The
   [des] suite checks the cases as recorded, the [fault] suite under a
   zero-rate fault plan. *)
let check_lockstep_fixture ?(adjust = Fun.id) () =
  Alcotest.(check int)
    "one case per recorded digest" (List.length lockstep_expected)
    (List.length lockstep_cases);
  let bad =
    List.filter_map
      (fun (name, scenario, cfg) ->
        let got = lockstep_digest (Engine.run (adjust cfg) scenario) in
        if List.assoc_opt name lockstep_expected = Some got then None
        else Some (Printf.sprintf "    %s: got %s" name got))
      lockstep_cases
  in
  if bad <> [] then
    Alcotest.failf "%d runs differ from the lockstep fixture:\n%s"
      (List.length bad) (String.concat "\n" bad)

let suite = [ Alcotest.test_case "traces, summaries and replies" `Quick test_golden ]
