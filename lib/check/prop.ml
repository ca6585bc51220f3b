open Adpm_trace

type fail = { f_reason : string; f_from_seq : int; f_to_seq : int }

type verdict = Pass | Fail of fail | Truncated of { dropped : int }

let verdict_to_string = function
  | Pass -> "pass"
  | Fail f ->
    Printf.sprintf "FAIL: %s [seq %d..%d]" f.f_reason f.f_from_seq f.f_to_seq
  | Truncated { dropped } ->
    Printf.sprintf "truncated (%d events dropped)" dropped

(* {2 Ambient facts} *)

type facts = {
  fx_completions : (int, int) Hashtbl.t;  (* op index -> completion time *)
  fx_actors : (int, string) Hashtbl.t;  (* op index -> executing designer *)
  fx_crashes : (string, (int * int option) list) Hashtbl.t;
      (* designer -> crash windows, newest first; [None] = still down *)
  fx_roster : (string, unit) Hashtbl.t;
  fx_idle : (string, unit) Hashtbl.t;
      (* designers who took a turn since the last [Op_submitted] *)
  mutable fx_unsolved_end : bool;  (* [Run_finished] with [completed = false] *)
  mutable fx_makespan : int;
  mutable fx_last_seq : int;
}

let fresh_facts () =
  {
    fx_completions = Hashtbl.create 64;
    fx_actors = Hashtbl.create 64;
    fx_crashes = Hashtbl.create 8;
    fx_roster = Hashtbl.create 8;
    fx_idle = Hashtbl.create 8;
    fx_unsolved_end = false;
    fx_makespan = 0;
    fx_last_seq = 0;
  }

let makespan f = f.fx_makespan
let completion_of f idx = Hashtbl.find_opt f.fx_completions idx
let actor_of f idx = Hashtbl.find_opt f.fx_actors idx
let roster_size f = Hashtbl.length f.fx_roster

let crashed_during f designer t1 t2 =
  match Hashtbl.find_opt f.fx_crashes designer with
  | None -> false
  | Some windows ->
    List.exists
      (fun (c, r) ->
        match r with Some r -> c <= t2 && r >= t1 | None -> c <= t2)
      windows

let ended_idle f =
  f.fx_unsolved_end
  && Hashtbl.fold
       (fun d () ok ->
         ok
         && (Hashtbl.mem f.fx_idle d
            || crashed_during f d f.fx_makespan f.fx_makespan))
       f.fx_roster true

let observe f (ev : Event.stamped) =
  f.fx_last_seq <- ev.seq;
  let time at = if at > f.fx_makespan then f.fx_makespan <- at in
  let seen d = Hashtbl.replace f.fx_roster d () in
  match ev.event with
  | Event.Op_completed { index; at } ->
    Hashtbl.replace f.fx_completions index at;
    time at
  | Event.Op_executed { index; designer; _ } ->
    Hashtbl.replace f.fx_actors index designer;
    seen designer
  | Event.Turn_started { designer; at } ->
    seen designer;
    Hashtbl.replace f.fx_idle designer ();
    time at
  | Event.Op_submitted _ -> Hashtbl.reset f.fx_idle
  | Event.Run_finished { completed; _ } -> f.fx_unsolved_end <- not completed
  | Event.Designer_crashed { designer; at } ->
    seen designer;
    time at;
    let windows =
      match Hashtbl.find_opt f.fx_crashes designer with
      | None -> []
      | Some ws -> ws
    in
    Hashtbl.replace f.fx_crashes designer ((at, None) :: windows)
  | Event.Designer_restarted { designer; at } ->
    time at;
    (* close the newest still-open window: real engine traces never nest
       crashes of one designer, but adversarial traces can, and a restart
       must not be discarded just because the newest window is closed *)
    let rec close = function
      | [] -> []
      | (c, None) :: rest -> (c, Some at) :: rest
      | w :: rest -> w :: close rest
    in
    let windows =
      match Hashtbl.find_opt f.fx_crashes designer with
      | Some ws -> close ws
      | None -> []
    in
    Hashtbl.replace f.fx_crashes designer windows
  | Event.Notification_delivered { delivered_at; _ } -> time delivered_at
  | Event.Notification_dropped { at; _ }
  | Event.Notification_duplicated { at; _ } ->
    time at
  | _ -> ()

(* {2 Properties} *)

type instance = {
  i_step : facts -> Event.stamped -> fail option;
  i_finish : facts -> fail option;
}

type t = { p_name : string; p_doc : string; p_instantiate : unit -> instance }

let never ~name ~doc pred =
  {
    p_name = name;
    p_doc = doc;
    p_instantiate =
      (fun () ->
        {
          i_step =
            (fun _ ev ->
              match pred ev with
              | None -> None
              | Some reason ->
                Some { f_reason = reason; f_from_seq = ev.seq; f_to_seq = ev.seq });
          i_finish = (fun _ -> None);
        });
  }

let eventually ~name ~doc ?(unless = fun _ -> false) pred =
  {
    p_name = name;
    p_doc = doc;
    p_instantiate =
      (fun () ->
        let seen = ref false in
        {
          i_step =
            (fun _ ev ->
              if (not !seen) && pred ev then seen := true;
              None);
          i_finish =
            (fun facts ->
              if !seen || unless facts then None
              else
                Some
                  {
                    f_reason = doc ^ ": never happened";
                    f_from_seq = 0;
                    f_to_seq = facts.fx_last_seq;
                  });
        });
  }

let leads_to ~name ~doc ~trigger ~key ~describe ~discharge
    ?(excuse = fun _ _ -> None) ?(at_end = fun _ _ -> false) () =
  {
    p_name = name;
    p_doc = doc;
    p_instantiate =
      (fun () ->
        (* key -> (obligation, seq of the trigger) *)
        let pending = Hashtbl.create 16 in
        let close pred =
          let doomed =
            Hashtbl.fold
              (fun k (ob, _) acc -> if pred ob then k :: acc else acc)
              pending []
          in
          List.iter (Hashtbl.remove pending) doomed
        in
        {
          i_step =
            (fun facts ev ->
              (* resolve before opening: an event may discharge old
                 obligations and trigger new ones *)
              (match discharge facts ev with Some p -> close p | None -> ());
              (match excuse facts ev with Some p -> close p | None -> ());
              List.iter
                (fun ob ->
                  let k = key ob in
                  if not (Hashtbl.mem pending k) then
                    Hashtbl.replace pending k (ob, ev.seq))
                (trigger facts ev);
              None);
          i_finish =
            (fun facts ->
              Hashtbl.fold
                (fun _ (ob, seq) acc ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                    if at_end facts ob then None
                    else
                      Some
                        {
                          f_reason = describe ob;
                          f_from_seq = seq;
                          f_to_seq = facts.fx_last_seq;
                        })
                pending None);
        });
  }

let after_never ~name ~doc ~mark ~bad ~describe =
  {
    p_name = name;
    p_doc = doc;
    p_instantiate =
      (fun () ->
        let marked : (string, int) Hashtbl.t = Hashtbl.create 16 in
        {
          i_step =
            (fun _ ev ->
              let offence =
                List.fold_left
                  (fun acc k ->
                    match acc with
                    | Some _ -> acc
                    | None -> (
                      match Hashtbl.find_opt marked k with
                      | Some mark_seq ->
                        Some
                          {
                            f_reason = describe k;
                            f_from_seq = mark_seq;
                            f_to_seq = ev.seq;
                          }
                      | None -> None))
                  None (bad ev)
              in
              List.iter (fun k -> Hashtbl.replace marked k ev.seq) (mark ev);
              offence);
          i_finish = (fun _ -> None);
        });
  }

let bounded_count ~name ~doc ~arm ~tick ~disarm ~bound ~describe =
  {
    p_name = name;
    p_doc = doc;
    p_instantiate =
      (fun () ->
        (* key -> (count, seq of the arming event) *)
        let armed : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
        {
          i_step =
            (fun facts ev ->
              (match disarm facts ev with
              | Some p ->
                let doomed =
                  Hashtbl.fold
                    (fun k _ acc -> if p k then k :: acc else acc)
                    armed []
                in
                List.iter (Hashtbl.remove armed) doomed
              | None -> ());
              let overflow =
                match tick facts ev with
                | None -> None
                | Some p ->
                  let limit = bound facts in
                  Hashtbl.fold
                    (fun k (count, seq) acc ->
                      if not (p k) then acc
                      else begin
                        let count = count + 1 in
                        Hashtbl.replace armed k (count, seq);
                        match acc with
                        | Some _ -> acc
                        | None ->
                          if count > limit then
                            Some
                              {
                                f_reason = describe k count;
                                f_from_seq = seq;
                                f_to_seq = ev.seq;
                              }
                          else None
                      end)
                    armed None
              in
              List.iter
                (fun k -> Hashtbl.replace armed k (0, ev.seq))
                (arm facts ev);
              overflow);
          i_finish = (fun _ -> None);
        });
  }

let conj ~name ~doc props =
  {
    p_name = name;
    p_doc = doc;
    p_instantiate =
      (fun () ->
        let instances = List.map (fun p -> p.p_instantiate ()) props in
        let first f =
          List.fold_left
            (fun acc i -> match acc with Some _ -> acc | None -> f i)
            None instances
        in
        {
          i_step = (fun facts ev -> first (fun i -> i.i_step facts ev));
          i_finish = (fun facts -> first (fun i -> i.i_finish facts));
        });
  }

(* {2 Checking} *)

type result = { c_prop : string; c_doc : string; c_verdict : verdict }

let truncation events =
  let rec gaps expected missing = function
    | [] -> missing
    | (ev : Event.stamped) :: rest ->
      let missing =
        if ev.seq > expected then missing + (ev.seq - expected) else missing
      in
      gaps (ev.seq + 1) missing rest
  in
  match events with
  | [] -> None
  | (first : Event.stamped) :: _ ->
    let missing = gaps first.seq 0 events + first.seq in
    if missing > 0 then Some missing else None

let check props events =
  match truncation events with
  | Some n ->
    List.map
      (fun p ->
        { c_prop = p.p_name; c_doc = p.p_doc; c_verdict = Truncated { dropped = n } })
      props
  | None ->
    let facts = fresh_facts () in
    let live = List.map (fun p -> (p, ref None, p.p_instantiate ())) props in
    List.iter
      (fun ev ->
        observe facts ev;
        List.iter
          (fun (_, verdict, inst) ->
            if !verdict = None then
              match inst.i_step facts ev with
              | Some f -> verdict := Some (Fail f)
              | None -> ())
          live)
      events;
    List.map
      (fun (p, verdict, inst) ->
        let v =
          match !verdict with
          | Some v -> v
          | None -> (
            match inst.i_finish facts with Some f -> Fail f | None -> Pass)
        in
        { c_prop = p.p_name; c_doc = p.p_doc; c_verdict = v })
      live

let failed results =
  List.filter (fun r -> r.c_verdict <> Pass) results

let render results =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-28s %s\n" r.c_prop (verdict_to_string r.c_verdict)))
    results;
  Buffer.contents b
