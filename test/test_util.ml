(* Tests for Adpm_util: deterministic RNG, streaming statistics, tables and
   charts. *)

open Adpm_util

let check_float = Alcotest.(check (float 1e-9))

(* {2 Rng} *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let ha = List.init 8 (fun _ -> Rng.bits64 a) in
  let hb = List.init 8 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "different seeds differ" true (ha <> hb)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let child_stream = List.init 8 (fun _ -> Rng.bits64 child) in
  let parent_stream = List.init 8 (fun _ -> Rng.bits64 parent) in
  Alcotest.(check bool) "split streams differ" true (child_stream <> parent_stream)

let test_rng_copy () =
  let a = Rng.create 3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.float_range rng 2.5 3.5 in
    Alcotest.(check bool) "in range" true (x >= 2.5 && x < 3.5)
  done;
  check_float "degenerate range" 4.0 (Rng.float_range rng 4.0 4.0)

let test_rng_uniformity () =
  (* crude chi-square-free check: each of 10 buckets gets 5-15% of draws *)
  let rng = Rng.create 13 in
  let buckets = Array.make 10 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket roughly uniform" true
        (c > n / 20 && c < n * 3 / 20))
    buckets

let test_rng_pick_matches_pick_array () =
  (* pick walks the list without the old Array.of_list copy; it must keep
     drawing exactly one rng value and choosing the same element. *)
  let xs = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ] in
  let arr = Array.of_list xs in
  let a = Rng.create 23 and b = Rng.create 23 in
  for _ = 1 to 200 do
    Alcotest.(check string) "same choice, same stream" (Rng.pick_array b arr)
      (Rng.pick a xs)
  done

let test_rng_pick_and_shuffle () =
  let rng = Rng.create 17 in
  let xs = [ 1; 2; 3; 4; 5 ] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "pick from list" true (List.mem (Rng.pick rng xs) xs)
  done;
  let shuffled = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "permutation" xs (List.sort compare shuffled);
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick rng []))

(* {2 Stats_acc} *)

let test_stats_basic () =
  let acc = Stats_acc.create () in
  List.iter (Stats_acc.add acc) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (List.length (Stats_acc.to_list acc));
  check_float "mean" 5.0 (Stats_acc.mean acc);
  check_float "sample stddev" (sqrt (32. /. 7.)) (Stats_acc.stddev acc)

let test_stats_empty () =
  let acc = Stats_acc.create () in
  Alcotest.(check bool) "mean is nan" true (Float.is_nan (Stats_acc.mean acc));
  check_float "stddev 0" 0. (Stats_acc.stddev acc);
  Alcotest.(check bool) "quantile nan" true (Float.is_nan (Stats_acc.quantile acc 0.5))

let test_stats_single () =
  let acc = Stats_acc.create () in
  Stats_acc.add acc 42.;
  check_float "mean" 42. (Stats_acc.mean acc);
  check_float "stddev" 0. (Stats_acc.stddev acc);
  check_float "median" 42. (Stats_acc.median acc)

let test_stats_quantiles () =
  let acc = Stats_acc.create () in
  List.iter (Stats_acc.add_int acc) [ 1; 2; 3; 4; 5 ];
  check_float "q0" 1. (Stats_acc.quantile acc 0.);
  check_float "q1" 5. (Stats_acc.quantile acc 1.);
  check_float "median" 3. (Stats_acc.median acc);
  check_float "q0.25" 2. (Stats_acc.quantile acc 0.25);
  (* clamped out-of-range arguments *)
  check_float "q>1 clamps" 5. (Stats_acc.quantile acc 2.)

let test_stats_quantile_cache_invalidation () =
  (* quantile caches the sorted array; an add must invalidate it so later
     queries see the new sample. *)
  let acc = Stats_acc.create () in
  List.iter (Stats_acc.add acc) [ 5.; 1.; 3. ];
  check_float "median before" 3. (Stats_acc.median acc);
  check_float "median again (cached)" 3. (Stats_acc.median acc);
  Stats_acc.add acc 100.;
  Stats_acc.add acc 200.;
  check_float "median after adds" 5. (Stats_acc.median acc);
  check_float "max quantile sees new samples" 200. (Stats_acc.quantile acc 1.)

let test_stats_insertion_order () =
  let acc = Stats_acc.create () in
  List.iter (Stats_acc.add acc) [ 3.; 1.; 2. ];
  Alcotest.(check (list (float 0.))) "to_list keeps order" [ 3.; 1.; 2. ]
    (Stats_acc.to_list acc)

let stats_welford_matches_naive =
  QCheck.Test.make ~name:"welford variance matches two-pass variance" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_inclusive 1000.))
    (fun xs ->
      QCheck.assume (List.length xs >= 2);
      let acc = Stats_acc.create () in
      List.iter (Stats_acc.add acc) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      let var =
        List.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.)
      in
      let sd = Stats_acc.stddev acc in
      abs_float ((sd *. sd) -. var) < 1e-6 *. (1. +. var))

(* {2 Table} *)

let test_table_render () =
  let t = Table.create ~title:"demo" [ "a"; "bb" ] in
  Table.set_align t [ Table.Left; Table.Right ];
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'd');
  Alcotest.(check bool) "right-aligned number" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> String.length l > 0 && String.ends_with ~suffix:" 1 |" l) lines)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_table_ragged_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "only-one" ];
  Table.add_row t [ "1"; "2"; "3"; "4-too-many" ];
  let s = Table.render t in
  Alcotest.(check bool) "renders" true (String.length s > 0);
  Alcotest.(check bool) "extra cell dropped" false (contains s "4-too-many")

(* {2 Ascii_chart} *)

let test_chart_line () =
  let s =
    Ascii_chart.line_chart ~title:"t"
      [
        { Ascii_chart.label = "a"; points = [ (0., 0.); (1., 1.); (2., 4.) ] };
        { Ascii_chart.label = "b"; points = [ (0., 4.); (2., 0.) ] };
      ]
  in
  Alcotest.(check bool) "has legend a" true (contains s "* = a");
  Alcotest.(check bool) "has legend b" true (contains s "o = b")

let test_chart_empty_series () =
  let s = Ascii_chart.line_chart ~title:"empty" [] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_chart_bar () =
  let s = Ascii_chart.bar_chart ~title:"bars" [ ("x", 10.); ("y", 5.) ] in
  Alcotest.(check bool) "labels present" true (contains s "x" && contains s "y")

let test_chart_bar_zero () =
  let s = Ascii_chart.bar_chart ~title:"z" [ ("a", 0.) ] in
  Alcotest.(check bool) "no crash on zero max" true (String.length s > 0)

let test_chart_histogram () =
  let s = Ascii_chart.histogram ~title:"h" ~bins:4 [ 1.; 2.; 2.; 3.; 10. ] in
  Alcotest.(check bool) "renders bins" true (contains s "[");
  let empty = Ascii_chart.histogram ~title:"h" [] in
  Alcotest.(check bool) "empty ok" true (contains empty "empty")

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng split independence", `Quick, test_rng_split_independent);
    ("rng copy", `Quick, test_rng_copy);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng uniformity", `Quick, test_rng_uniformity);
    ("rng pick and shuffle", `Quick, test_rng_pick_and_shuffle);
    ("rng pick matches pick_array", `Quick, test_rng_pick_matches_pick_array);
    ("stats basics", `Quick, test_stats_basic);
    ("stats empty", `Quick, test_stats_empty);
    ("stats single", `Quick, test_stats_single);
    ("stats quantiles", `Quick, test_stats_quantiles);
    ("stats insertion order", `Quick, test_stats_insertion_order);
    ("stats quantile cache invalidation", `Quick,
     test_stats_quantile_cache_invalidation);
    QCheck_alcotest.to_alcotest stats_welford_matches_naive;
    ("table render", `Quick, test_table_render);
    ("table ragged rows", `Quick, test_table_ragged_rows);
    ("chart line", `Quick, test_chart_line);
    ("chart empty", `Quick, test_chart_empty_series);
    ("chart bar", `Quick, test_chart_bar);
    ("chart bar zero", `Quick, test_chart_bar_zero);
    ("chart histogram", `Quick, test_chart_histogram);
  ]
