(* Deterministic counts recorded at --seed 1 and full scale. A run at
   that seed must reproduce each one exactly; a difference counts as a
   failed item. Every run prints its counts on stderr ("perf: counts"),
   which is where these come from. *)

let seed = 1

let table =
  [
    ( ("sim-adpm", "first_block"),
      {|{"items":22,"operations":192,"evaluations":12785,"completed":22,"spins":0}|} );
    (("sim-adpm", "first_block_trace"), {|{"revisions":5894,"notifications":267}|});
    ( ("sim-conventional", "first_block"),
      {|{"items":25,"operations":2766,"evaluations":5460,"completed":25,"spins":176}|} );
    (("sim-conventional", "first_block_trace"), {|{"revisions":0,"notifications":4157}|});
    ( ("sim-gen-large", "first_block"),
      {|{"items":36,"operations":1258,"evaluations":182101,"completed":36,"spins":111}|} );
    (("sim-gen-large", "first_block_trace"), {|{"revisions":56474,"notifications":3672}|});
    ( ("teamsimd-churn", "first_generation"),
      {|{"sessions":64,"commands":1173,"fingerprints":"f279b83c41c183c05cf8f0a9e7045897"}|} );
    ( ("teamsimd-recovery", "fixture"),
      {|{"sessions":32,"fingerprints":"1d415fbaabfa87ea60a241ae8445b975"}|} );
  ]

let find workload name =
  match List.assoc_opt (workload, name) table with
  | None -> None
  | Some text -> (
    match Adpm_trace.Json.parse text with
    | Ok j -> Some j
    | Error msg -> failwith ("Expected: " ^ msg))
