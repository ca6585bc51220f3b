type t = {
  nvars : int;
  domains : int list array;
  constraints : (int * int * (int -> int -> bool)) list;
}

let make ~nvars ~domains ~constraints =
  if Array.length domains <> nvars then
    invalid_arg "Fcsp.make: domains array length mismatch";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= nvars || j < 0 || j >= nvars || i = j then
        invalid_arg "Fcsp.make: bad constraint scope")
    constraints;
  { nvars; domains = Array.copy domains; constraints }

let degree csp v =
  List.length (List.filter (fun (i, j, _) -> i = v || j = v) csp.constraints)

let consistent_assignment csp assignment =
  List.for_all
    (fun (i, j, ok) -> ok assignment.(i) assignment.(j))
    csp.constraints

let solutions ?(limit = max_int) csp =
  let found = ref [] in
  let count = ref 0 in
  let assignment = Array.make csp.nvars min_int in
  let compatible v value =
    List.for_all
      (fun (i, j, ok) ->
        if i = v && j < v then ok value assignment.(j)
        else if j = v && i < v then ok assignment.(i) value
        else true)
      csp.constraints
  in
  let rec go v =
    if !count >= limit then ()
    else if v = csp.nvars then begin
      found := Array.copy assignment :: !found;
      incr count
    end
    else
      List.iter
        (fun value ->
          if !count < limit && compatible v value then begin
            assignment.(v) <- value;
            go (v + 1)
          end)
        csp.domains.(v)
  in
  go 0;
  List.rev !found
