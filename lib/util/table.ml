type align = Left | Right | Center

type t = {
  title : string option;
  headers : string list;
  ncols : int;
  mutable aligns : align array;
  mutable rows : string list list; (* reversed *)
}

let create ?title headers =
  let ncols = List.length headers in
  { title; headers; ncols; aligns = Array.make ncols Left; rows = [] }

let set_align t aligns =
  List.iteri (fun i a -> if i < t.ncols then t.aligns.(i) <- a) aligns

let normalize ncols cells =
  let n = List.length cells in
  if n = ncols then cells
  else if n < ncols then cells @ List.init (ncols - n) (fun _ -> "")
  else List.filteri (fun i _ -> i < ncols) cells

let add_row t cells = t.rows <- normalize t.ncols cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s
    | Center ->
      let left = (width - n) / 2 in
      String.make left ' ' ^ s ^ String.make (width - n - left) ' '

let render t =
  let rows = List.rev t.rows in
  let widths = Array.make t.ncols 0 in
  let measure cells =
    List.iteri
      (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c)
      cells
  in
  measure t.headers;
  List.iter measure rows;
  let buf = Buffer.create 256 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_cells aligns cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad aligns.(i) widths.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | Some title ->
    Buffer.add_string buf title;
    Buffer.add_char buf '\n'
  | None -> ());
  rule ();
  emit_cells (Array.make t.ncols Center) t.headers;
  rule ();
  List.iter (emit_cells t.aligns) rows;
  rule ();
  Buffer.contents buf
