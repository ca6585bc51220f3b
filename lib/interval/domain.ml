type t =
  | Empty
  | Continuous of Interval.t
  | Finite of float array
  | Symbolic of string list

let continuous lo hi = Continuous (Interval.make lo hi)

let finite values =
  let sorted = List.sort_uniq compare values in
  match sorted with [] -> Empty | _ -> Finite (Array.of_list sorted)

let symbolic syms =
  let dedup =
    List.fold_left (fun acc s -> if List.mem s acc then acc else s :: acc) [] syms
  in
  match List.rev dedup with [] -> Empty | syms -> Symbolic syms

let is_empty = function Empty -> true | Continuous _ | Finite _ | Symbolic _ -> false

let is_numeric = function
  | Empty | Continuous _ | Finite _ -> true
  | Symbolic _ -> false

let mem_num x = function
  | Empty | Symbolic _ -> false
  | Continuous iv -> Interval.mem x iv
  | Finite arr -> Array.exists (fun v -> v = x) arr

let mem_sym s = function
  | Symbolic syms -> List.mem s syms
  | Empty | Continuous _ | Finite _ -> false

let hull = function
  | Empty | Symbolic _ -> None
  | Continuous iv -> Some iv
  | Finite arr -> Some (Interval.make arr.(0) arr.(Array.length arr - 1))

let refine d iv =
  match d with
  | Empty -> Empty
  | Symbolic _ -> d
  | Continuous cur -> (
    match Interval.intersect cur iv with
    | None -> Empty
    | Some res -> Continuous res)
  | Finite arr -> (
    let kept = Array.to_list arr |> List.filter (fun v -> Interval.mem v iv) in
    match kept with [] -> Empty | _ -> Finite (Array.of_list kept))

let measure = function
  | Empty -> 0.
  | Continuous iv -> Interval.width iv
  | Finite arr -> float_of_int (Array.length arr - 1)
  | Symbolic syms -> float_of_int (List.length syms - 1)

let relative_measure ~initial d =
  let init = measure initial in
  if init <= 0. then 1.
  else begin
    let m = measure d /. init in
    if m > 1. then 1. else m
  end

let equal a b =
  match (a, b) with
  | Empty, Empty -> true
  | Continuous x, Continuous y -> Interval.equal x y
  | Finite x, Finite y -> x = y
  | Symbolic x, Symbolic y -> x = y
  | (Empty | Continuous _ | Finite _ | Symbolic _), _ -> false

let pp ppf = function
  | Empty -> Format.pp_print_string ppf "{}"
  | Continuous iv -> Interval.pp ppf iv
  | Finite arr ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf v -> Format.fprintf ppf "%g" v))
      (Array.to_list arr)
  | Symbolic syms ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Format.pp_print_string)
      syms

let to_string d = Format.asprintf "%a" pp d
