type entry = { e_value : float; e_key : string }

(* prop id -> its entries; a property has a handful at most *)
type t = (int, entry list) Hashtbl.t

let create () = Hashtbl.create 8
let key v = Printf.sprintf "%.9g" v
let entries t pid = Option.value ~default:[] (Hashtbl.find_opt t pid)

let near v w =
  Float.is_finite w
  && Float.abs (v -. w) <= 1e-7 *. Float.max (Float.abs v) (Float.abs w)

let mem t pid v =
  let l = entries t pid in
  let bits = Int64.bits_of_float v in
  if List.exists (fun e -> Int64.equal (Int64.bits_of_float e.e_value) bits) l
  then true
  else if Float.is_finite v && not (List.exists (fun e -> near v e.e_value) l)
  then false
  else
    let k = key v in
    List.exists (fun e -> String.equal e.e_key k) l

let add t pid v =
  if not (mem t pid v) then
    Hashtbl.replace t pid ({ e_value = v; e_key = key v } :: entries t pid)
