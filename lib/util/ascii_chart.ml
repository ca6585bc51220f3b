type series = { label : string; points : (float * float) list }

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |]

let finite_or x default = if Float.is_finite x then x else default

let bounds series =
  let xs = List.concat_map (fun s -> List.map fst s.points) series in
  let ys = List.concat_map (fun s -> List.map snd s.points) series in
  match (xs, ys) with
  | [], _ | _, [] -> (0., 1., 0., 1.)
  | _ ->
    let fold f init = List.fold_left f init in
    let xmin = fold min infinity xs and xmax = fold max neg_infinity xs in
    let ymin = fold min infinity ys and ymax = fold max neg_infinity ys in
    let xmin = finite_or xmin 0. and xmax = finite_or xmax 1. in
    let ymin = finite_or (min ymin 0.) 0. and ymax = finite_or ymax 1. in
    let xmax = if xmax <= xmin then xmin +. 1. else xmax in
    let ymax = if ymax <= ymin then ymin +. 1. else ymax in
    (xmin, xmax, ymin, ymax)

(* plotting area of a line chart, and the longest bar of a bar chart *)
let width = 72
let height = 20
let bar_width = 50

let line_chart ?(x_label = "") ?(y_label = "") ~title series =
  let xmin, xmax, ymin, ymax = bounds series in
  let grid = Array.make_matrix height width ' ' in
  let plot_x x =
    let frac = (x -. xmin) /. (xmax -. xmin) in
    let col = int_of_float (frac *. float_of_int (width - 1)) in
    max 0 (min (width - 1) col)
  in
  let plot_y y =
    let frac = (y -. ymin) /. (ymax -. ymin) in
    let row = int_of_float (frac *. float_of_int (height - 1)) in
    (height - 1) - max 0 (min (height - 1) row)
  in
  List.iteri
    (fun si s ->
      let glyph = glyphs.(si mod Array.length glyphs) in
      List.iter (fun (x, y) -> grid.(plot_y y).(plot_x x) <- glyph) s.points)
    series;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  if y_label <> "" then begin
    Buffer.add_string buf (Printf.sprintf "  (y: %s)\n" y_label)
  end;
  let ylab_top = Printf.sprintf "%10.3g" ymax in
  let ylab_bot = Printf.sprintf "%10.3g" ymin in
  Array.iteri
    (fun row line ->
      let prefix =
        if row = 0 then ylab_top
        else if row = height - 1 then ylab_bot
        else String.make 10 ' '
      in
      Buffer.add_string buf prefix;
      Buffer.add_string buf " |";
      Buffer.add_string buf (String.init width (fun c -> line.(c)));
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf (String.make 10 ' ');
  Buffer.add_string buf " +";
  Buffer.add_string buf (String.make width '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%s %-10.3g%*s%10.3g\n" (String.make 10 ' ') xmin
       (width - 20) "" xmax);
  if x_label <> "" then
    Buffer.add_string buf (Printf.sprintf "%12s(x: %s)\n" "" x_label);
  List.iteri
    (fun si s ->
      Buffer.add_string buf
        (Printf.sprintf "%12s%c = %s\n" "" glyphs.(si mod Array.length glyphs)
           s.label))
    series;
  Buffer.contents buf

let bar_chart ~title entries =
  let max_v =
    List.fold_left (fun acc (_, v) -> max acc (abs_float v)) 0. entries
  in
  let max_v = if max_v <= 0. then 1. else max_v in
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 entries
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, v) ->
      let n = int_of_float (abs_float v /. max_v *. float_of_int bar_width) in
      Buffer.add_string buf
        (Printf.sprintf "  %-*s | %s %.3g\n" label_w label (String.make n '#') v))
    entries;
  Buffer.contents buf

let histogram ?(bins = 10) ~title samples =
  match samples with
  | [] -> title ^ "\n  (empty sample)\n"
  | _ ->
    let lo = List.fold_left min infinity samples in
    let hi = List.fold_left max neg_infinity samples in
    let hi = if hi <= lo then lo +. 1. else hi in
    let counts = Array.make bins 0 in
    List.iter
      (fun x ->
        let i =
          int_of_float ((x -. lo) /. (hi -. lo) *. float_of_int bins)
        in
        let i = max 0 (min (bins - 1) i) in
        counts.(i) <- counts.(i) + 1)
      samples;
    let entries =
      Array.to_list
        (Array.mapi
           (fun i c ->
             let bin_lo = lo +. (float_of_int i *. (hi -. lo) /. float_of_int bins) in
             let bin_hi = lo +. (float_of_int (i + 1) *. (hi -. lo) /. float_of_int bins) in
             (Printf.sprintf "[%.3g, %.3g)" bin_lo bin_hi, float_of_int c))
           counts)
    in
    bar_chart ~title entries
