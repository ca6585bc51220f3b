(* Verdicts for a change against its parent from paired benchmark runs:

     compare.exe BENCHMARK.json PARENT_DIR CHANGE_DIR

   Each directory holds one file per run, named <key>.<pair>.json, whose
   last line is the run's result object; <key> is usually the workload
   (for instance sim-adpm.3.json, or sim-adpm.trace.3.json for traced
   runs). Files with the same key and pair number in the two directories
   form a pair. At least 10 pairs per key are required, run with the
   order of parent and change alternating.

   One row per key and metric: each side's median and quartiles, the
   fraction of pairs the change wins (ties count for neither), and a
   verdict:

   - gain: the change wins at least 9/10 of the pairs, its median is
     better by more than the parent's quartile spread, and it fails no
     more items than the parent
   - unresolved: the parent's own spread (IQR / median) exceeds the
     metric's bound, and not every change run beats every parent run
   - regression: the change's median is worse than the parent's by more
     than the bound
   - no-regression: otherwise

   Metrics without a bound in BENCHMARK.json (the per-layer ones) are
   shown without a verdict. Exits 1 if any row is a regression.

     compare.exe DIR

   prints each key's medians, quartiles and spread (IQR / median) as JSON
   instead: the form of baseline.json. *)

module Json = Adpm_trace.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

(* [(q1, median, q3)] by the exclusive method of Python's
   [statistics.quantiles(values, n=4)], so spreads agree with Python
   tooling reading the same result files. *)
let quartiles values =
  let data = Array.of_list values in
  Array.sort compare data;
  let n = Array.length data in
  if n = 1 then (data.(0), data.(0), data.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta)) +. (data.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> die "%s" m
  | text -> text

let parse path text =
  match Json.parse text with Ok j -> j | Error m -> die "%s: %s" path m

(* A result file's last line is the run's result object. *)
let read_result path =
  match
    List.rev
      (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read path)))
  with
  | [] -> die "%s: empty" path
  | last :: _ -> parse path last

type bound = { better_lower : bool; bound : float option }

let bounds bench =
  let metrics key =
    match Option.bind (Json.member key bench) Json.to_list with
    | Some l -> l
    | None -> die "BENCHMARK.json lacks %s" key
  in
  List.filter_map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_str,
          Option.bind (Json.member "better" m) Json.to_str )
      with
      | Some name, Some better ->
        Some
          ( name,
            {
              better_lower = better = "lower";
              bound = Option.bind (Json.member "bound" m) Json.to_float;
            } )
      | _ -> None)
    (metrics "end_to_end" @ metrics "per_layer")

(* key -> pair -> result *)
let runs dir =
  let table = Hashtbl.create 16 in
  Array.iter
    (fun file ->
      match List.rev (String.split_on_char '.' file) with
      | "json" :: pair :: rest when int_of_string_opt pair <> None ->
        let key = String.concat "." (List.rev rest) in
        Hashtbl.replace table (key, int_of_string pair)
          (read_result (Filename.concat dir file))
      | _ -> ())
    (try Sys.readdir dir with Sys_error m -> die "%s" m);
  table

let metric_value result name =
  Option.bind (Json.member "metrics" result) (fun m ->
      Option.bind (Json.member name m) (fun v ->
          Option.bind (Json.member "value" v) Json.to_float))

let failed result =
  Option.value ~default:0 (Option.bind (Json.member "failed" result) Json.to_int)

let keys table =
  Hashtbl.fold (fun (k, _) _ acc -> if List.mem k acc then acc else k :: acc) table []
  |> List.sort compare

let metric_names key result =
  match Json.member "metrics" result with
  | Some (Json.Obj fields) -> List.map fst fields
  | _ -> die "%s: result without metrics" key

let values key name results =
  List.map
    (fun r ->
      match metric_value r name with
      | Some v -> v
      | None -> die "%s: a run lacks %s" key name)
    results

(* One directory: each key's medians and quartiles, as JSON. *)
let summarize dir =
  let table = runs dir in
  let summary key =
    let results =
      Hashtbl.fold (fun (k, _) r acc -> if k = key then r :: acc else acc) table []
    in
    let metric name =
      let q1, m, q3 = quartiles (values key name results) in
      ( name,
        Json.Obj
          [
            ("median", Json.Num m);
            ("q1", Json.Num q1);
            ("q3", Json.Num q3);
            ("spread", Json.Num ((q3 -. q1) /. Float.abs m));
          ] )
    in
    ( key,
      Json.Obj
        (("runs", Json.Num (float_of_int (List.length results)))
        :: List.map metric (metric_names key (List.hd results))) )
  in
  print_endline (Json.to_string (Json.Obj (List.map summary (keys table))))

(* The fraction of pairs the change wins, and the verdict; [pv] and
   [cv] are the parent's and the change's values, pair by pair. *)
let judge b ~more_failures pv cv =
  let better x y = if b.better_lower then x < y else x > y in
  let won = List.filter (fun (c, p) -> better c p) (List.combine cv pv) in
  let wins = float_of_int (List.length won) /. float_of_int (List.length pv) in
  let pq1, pm, pq3 = quartiles pv and _, cm, _ = quartiles cv in
  let verdict =
    match b.bound with
    | None -> "-"
    | Some bound ->
      let spread = pq3 -. pq1 in
      let all_better = List.for_all (fun c -> List.for_all (better c) pv) cv in
      let worse_by = (if b.better_lower then cm -. pm else pm -. cm) /. Float.abs pm in
      if wins >= 0.9 && better cm pm && Float.abs (cm -. pm) > spread && not more_failures
      then "gain"
      else if spread /. Float.abs pm > bound && not all_better then "unresolved"
      else if worse_by > bound then "regression"
      else "no-regression"
  in
  (wins, verdict)

let compare_dirs bounds parent_dir change_dir =
  let parent = runs parent_dir and change = runs change_dir in
  if Hashtbl.length parent = 0 then die "no result files in %s" parent_dir;
  let regressions = ref 0 in
  Printf.printf "%-22s %-34s %26s %26s %5s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun key ->
      let pairs =
        Hashtbl.fold
          (fun (k, i) p acc ->
            match Hashtbl.find_opt change (k, i) with
            | Some c when k = key -> (p, c) :: acc
            | _ -> acc)
          parent []
      in
      let n = List.length pairs in
      if n < 10 then die "%s: %d pairs, at least 10 needed" key n;
      let fails side = List.fold_left (fun a r -> a + failed (side r)) 0 pairs in
      let more_failures = fails snd > fails fst in
      List.iter
        (fun name ->
          let pv = values key name (List.map fst pairs)
          and cv = values key name (List.map snd pairs) in
          let b =
            Option.value ~default:{ better_lower = true; bound = None }
              (List.assoc_opt name bounds)
          in
          let wins, v = judge b ~more_failures pv cv in
          if v = "regression" then incr regressions;
          let pq1, pm, pq3 = quartiles pv and cq1, cm, cq3 = quartiles cv in
          Printf.printf "%-22s %-34s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %5.2f  %s\n"
            key name pm pq1 pq3 cm cq1 cq3 wins v)
        (metric_names key (fst (List.hd pairs)));
      if more_failures then
        Printf.printf "%-22s failed items: parent %d, change %d\n" key (fails fst)
          (fails snd))
    (keys parent);
  !regressions

let () =
  match Sys.argv with
  | [| _; dir |] -> summarize dir
  | [| _; bench; parent; change |] ->
    exit (if compare_dirs (bounds (parse bench (read bench))) parent change > 0 then 1 else 0)
  | _ ->
    die "usage: compare.exe BENCHMARK.json PARENT_DIR CHANGE_DIR\n\
        \       compare.exe DIR"
