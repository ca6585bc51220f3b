type t = Num of float | Sym of string

let to_string = function Num x -> Printf.sprintf "%g" x | Sym s -> s
