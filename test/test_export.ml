(* Tests for Adpm_teamsim.Export (and the shared Adpm_util.Escape rules):
   CSV/JSON escaping round-trips on hostile strings, and a schema sanity
   check that summary_json is well-formed JSON with the documented fields
   (parsed with the trace library's hand-rolled reader — no external JSON
   dependency). *)

open Adpm_core
open Adpm_teamsim

let hostile_strings =
  [
    "plain";
    "";
    "comma, inside";
    "double \"quotes\"";
    "line\nbreak";
    "carriage\rreturn";
    "crlf\r\nline";
    "tab\tand control \x01 bytes";
    "trailing,\"mix\"\n";
    "non-ASCII: héhé — 設計 αβ";
  ]

(* Inverse of RFC 4180 quoting: strip the outer quotes and undouble. *)
let csv_unescape s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then begin
    let body = String.sub s 1 (n - 2) in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < String.length body do
      if body.[!i] = '"' then begin
        (* escaped quote: the doubling guarantees a second one follows *)
        Buffer.add_char buf '"';
        i := !i + 2
      end
      else begin
        Buffer.add_char buf body.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end
  else s

let test_csv_escape_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "csv round-trip %S" s)
        s
        (csv_unescape (Adpm_util.Escape.csv s)))
    hostile_strings

let test_csv_escape_is_field_safe () =
  List.iter
    (fun s ->
      let escaped = Adpm_util.Escape.csv s in
      let quoted = String.length escaped >= 2 && escaped.[0] = '"' in
      if not quoted then begin
        Alcotest.(check bool) "unquoted field has no comma" false
          (String.contains escaped ',');
        Alcotest.(check bool) "unquoted field has no newline" false
          (String.contains escaped '\n');
        Alcotest.(check bool) "unquoted field has no carriage return" false
          (String.contains escaped '\r')
      end)
    hostile_strings

(* JSON escaping round-trips through an actual JSON parser: wrap the
   escaped body in quotes and read it back. *)
let test_json_escape_roundtrip () =
  let module Json = Adpm_trace.Json in
  List.iter
    (fun s ->
      match Json.parse ("\"" ^ Adpm_util.Escape.json s ^ "\"") with
      | Ok (Json.Str s') ->
        Alcotest.(check string) (Printf.sprintf "json round-trip %S" s) s s'
      | Ok _ -> Alcotest.failf "%S did not parse as a string" s
      | Error e -> Alcotest.failf "%S does not re-parse: %s" s e)
    hostile_strings

let sample_summary () =
  let cfg = Config.default ~mode:Dpm.Adpm ~seed:7 in
  let cfg = { cfg with Config.max_ops = 200 } in
  (Engine.run cfg Adpm_scenarios.Lna.scenario).Engine.o_summary

let test_summary_json_schema () =
  let module Json = Adpm_trace.Json in
  let summary = sample_summary () in
  match Json.parse (Export.summary_json summary) with
  | Error e -> Alcotest.failf "summary_json is not valid JSON: %s" e
  | Ok j ->
    let str name = Option.bind (Json.member name j) Json.to_str in
    let int name = Option.bind (Json.member name j) Json.to_int in
    Alcotest.(check (option string)) "scenario" (Some "lna") (str "scenario");
    Alcotest.(check (option string)) "mode" (Some "ADPM") (str "mode");
    Alcotest.(check (option int)) "seed" (Some 7) (int "seed");
    Alcotest.(check (option int)) "operations"
      (Some summary.Metrics.s_operations)
      (int "operations");
    Alcotest.(check (option int)) "evaluations"
      (Some summary.Metrics.s_evaluations)
      (int "evaluations");
    Alcotest.(check (option bool)) "completed"
      (Some summary.Metrics.s_completed)
      (Option.bind (Json.member "completed" j) Json.to_bool);
    let profile =
      Option.bind (Json.member "profile" j) Json.to_list
      |> Option.value ~default:[]
    in
    Alcotest.(check int) "one profile entry per record"
      (List.length summary.Metrics.s_profile)
      (List.length profile);
    List.iter
      (fun entry ->
        List.iter
          (fun field ->
            Alcotest.(check bool)
              (Printf.sprintf "profile entry has %s" field)
              true
              (Json.member field entry <> None))
          [ "op"; "designer"; "kind"; "evaluations"; "new_violations";
            "known_violations"; "spin" ])
      profile

let test_runs_csv_shape () =
  let summary = sample_summary () in
  let csv = Export.runs_csv [ summary; summary ] in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  Alcotest.(check int) "header + one line per run" 3 (List.length lines);
  let columns l = List.length (String.split_on_char ',' l) in
  List.iter
    (fun l -> Alcotest.(check int) "column count" (columns (List.hd lines)) (columns l))
    lines

let suite =
  [
    Alcotest.test_case "csv escape round-trip" `Quick test_csv_escape_roundtrip;
    Alcotest.test_case "csv escape field safety" `Quick
      test_csv_escape_is_field_safe;
    Alcotest.test_case "json escape round-trip" `Quick
      test_json_escape_roundtrip;
    Alcotest.test_case "summary_json schema" `Quick test_summary_json_schema;
    Alcotest.test_case "runs_csv shape" `Quick test_runs_csv_shape;
  ]
