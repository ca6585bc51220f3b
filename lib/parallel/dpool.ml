(* Shared-memory domain pool.

   Work distribution is chunk-handoff self-scheduling: one Atomic counter
   of the next unclaimed item index; each domain (the spawned workers and
   the calling domain, which participates) grabs items with
   [fetch_and_add] until the list is drained. No work queue, no
   stealing — for batches of similar-cost items (seed sweeps) this is
   within noise of a work-stealing deque and has no failure modes.

   Each result cell is written by exactly one domain and read by the
   caller only after [Domain.join] of every worker, which establishes the
   necessary happens-before edge; the item array is read-only after
   construction. No other state is shared — the item function must itself
   be domain-safe (the simulation runner is: each run builds its own
   network, Rng and DCM from the scenario closure). *)

exception Worker_error of { index : int; message : string }

let cpu_count () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | contents ->
    let n =
      List.fold_left
        (fun acc line ->
          if String.length line >= 9 && String.sub line 0 9 = "processor" then
            acc + 1
          else acc)
        0
        (String.split_on_char '\n' contents)
    in
    max 1 n
  | exception Sys_error _ -> 1

let map ~jobs ~f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let r =
        match f arr.(i) with
        | v -> Ok v
        | exception e -> Error ("worker raised: " ^ Printexc.to_string e)
      in
      out.(i) <- Some r;
      work ()
    end
  in
  let helpers = max 0 (min jobs n - 1) in
  let domains = Array.init helpers (fun _ -> Domain.spawn work) in
  work ();
  Array.iter Domain.join domains;
  (* the lowest failing index wins, whichever domain got there first *)
  Array.iteri
    (fun index r ->
      match r with
      | Some (Error message) -> raise (Worker_error { index; message })
      | Some (Ok _) | None -> ())
    out;
  Array.to_list
    (Array.map (function Some (Ok v) -> v | Some (Error _) | None -> assert false) out)
