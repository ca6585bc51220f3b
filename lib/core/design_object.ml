type t = {
  o_name : string;
  o_properties : string list;
  mutable o_version : int * int * int;
}

let make ~name ~properties =
  { o_name = name; o_properties = properties; o_version = (1, 0, 0) }

let copy t = { t with o_name = t.o_name }

let version_string t =
  let major, minor, patch = t.o_version in
  Printf.sprintf "%d.%d.%d" major minor patch

let bump_patch t =
  let major, minor, patch = t.o_version in
  t.o_version <- (major, minor, patch + 1)

let owns t prop = List.mem prop t.o_properties
