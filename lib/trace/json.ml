open Adpm_util

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* {2 Printing} *)

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null" (* nan/inf have no JSON representation *)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (float_to_string f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (Escape.json s);
    Buffer.add_char buf '"'
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (Escape.json k);
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* {2 Parsing} *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let error cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec loop () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      loop ()
    | _ -> ()
  in
  loop ()

let expect cur c =
  match peek cur with
  | Some d when d = c -> advance cur
  | _ -> error cur (Printf.sprintf "expected %c" c)

let parse_literal cur word value =
  if
    cur.pos + String.length word <= String.length cur.src
    && String.sub cur.src cur.pos (String.length word) = word
  then begin
    cur.pos <- cur.pos + String.length word;
    value
  end
  else error cur (Printf.sprintf "expected %s" word)

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec loop () =
    match peek cur with
    | Some c when is_num_char c ->
      advance cur;
      loop ()
    | _ -> ()
  in
  loop ();
  let text = String.sub cur.src start (cur.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> error cur (Printf.sprintf "bad number %s" text)

(* Encode a Unicode code point as UTF-8 bytes (up to U+10FFFF). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* Exactly four hex digits, validated by hand: [int_of_string "0x…"]
   accepts OCaml-isms (underscores, signs, a nested 0x) that are not
   JSON. *)
let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let parse_hex4 cur =
  if cur.pos + 4 > String.length cur.src then error cur "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    match hex_digit cur.src.[cur.pos + i] with
    | Some d -> v := (!v lsl 4) lor d
    | None ->
      error cur
        (Printf.sprintf "bad \\u escape %s" (String.sub cur.src cur.pos 4))
  done;
  cur.pos <- cur.pos + 4;
  !v

let parse_string_body cur =
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
      advance cur;
      match peek cur with
      | None -> error cur "unterminated escape"
      | Some c ->
        advance cur;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = parse_hex4 cur in
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            (* High surrogate: JSON encodes astral-plane code points as a
               \uD800-DBFF \uDC00-DFFF pair, which must decode to ONE
               code point — never to two 3-byte CESU-8 sequences. *)
            if
              not
                (cur.pos + 2 <= String.length cur.src
                && cur.src.[cur.pos] = '\\'
                && cur.src.[cur.pos + 1] = 'u')
            then error cur (Printf.sprintf "unpaired high surrogate %04X" cp);
            cur.pos <- cur.pos + 2;
            let lo = parse_hex4 cur in
            if lo < 0xDC00 || lo > 0xDFFF then
              error cur
                (Printf.sprintf "high surrogate %04X followed by %04X" cp lo);
            add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then
            error cur (Printf.sprintf "unpaired low surrogate %04X" cp)
          else add_utf8 buf cp
        | c -> error cur (Printf.sprintf "bad escape \\%c" c));
        loop ())
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some 'n' -> parse_literal cur "null" Null
  | Some 't' -> parse_literal cur "true" (Bool true)
  | Some 'f' -> parse_literal cur "false" (Bool false)
  | Some '"' ->
    advance cur;
    Str (parse_string_body cur)
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> error cur "expected , or ] in array"
      in
      Arr (items [])
    end
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let field () =
        skip_ws cur;
        expect cur '"';
        let k = parse_string_body cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields (kv :: acc)
        | Some '}' ->
          advance cur;
          List.rev (kv :: acc)
        | _ -> error cur "expected , or } in object"
      in
      Obj (fields [])
    end
  | Some _ -> parse_number cur

let parse s =
  let cur = { src = s; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" cur.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* {2 Accessors} *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_int = function Num f when Float.is_integer f -> Some (int_of_float f) | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr items -> Some items | _ -> None
