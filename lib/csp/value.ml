type t = Num of float | Sym of string

let sym = function Sym s -> Some s | Num _ -> None

let equal a b =
  match (a, b) with
  | Num x, Num y -> x = y
  | Sym x, Sym y -> String.equal x y
  | (Num _ | Sym _), _ -> false

let pp ppf = function
  | Num x -> Format.fprintf ppf "%g" x
  | Sym s -> Format.pp_print_string ppf s

let to_string v = Format.asprintf "%a" pp v
