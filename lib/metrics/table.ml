type align = Left | Right

type row = Cells of string list | Separator

type t = {
  title : string;
  columns : (string * align) list;
  mutable rows_rev : row list;
}

let create ~title ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { title; columns; rows_rev = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row: %d cells for %d columns"
         (List.length cells) (List.length t.columns));
  t.rows_rev <- Cells cells :: t.rows_rev

let add_separator t = t.rows_rev <- Separator :: t.rows_rev

let render t =
  let rows = List.rev t.rows_rev in
  let headers = List.map fst t.columns in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row ->
            match row with
            | Cells cells -> max w (String.length (List.nth cells i))
            | Separator -> w)
          (String.length h) rows)
      headers
  in
  let pad align width s =
    let n = width - String.length s in
    if n <= 0 then s
    else
      match align with
      | Left -> s ^ String.make n ' '
      | Right -> String.make n ' ' ^ s
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  let line c =
    List.iter (fun w -> Buffer.add_string buf (String.make (w + 2) c)) widths;
    Buffer.add_char buf '\n'
  in
  line '-';
  List.iteri
    (fun i h ->
      let w = List.nth widths i in
      Buffer.add_string buf (pad Left w h);
      Buffer.add_string buf "  ")
    headers;
  Buffer.add_char buf '\n';
  line '-';
  List.iter
    (fun row ->
      match row with
      | Separator -> line '-'
      | Cells cells ->
          List.iteri
            (fun i c ->
              let w = List.nth widths i in
              let _, align = List.nth t.columns i in
              Buffer.add_string buf (pad align w c);
              Buffer.add_string buf "  ")
            cells;
          Buffer.add_char buf '\n')
    rows;
  line '-';
  Buffer.contents buf

let to_csv t =
  let quote s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (String.concat "," (List.map (fun (h, _) -> quote h) t.columns));
  Buffer.add_char buf '\n';
  List.iter
    (function
      | Separator -> ()
      | Cells cells ->
          Buffer.add_string buf (String.concat "," (List.map quote cells));
          Buffer.add_char buf '\n')
    (List.rev t.rows_rev);
  Buffer.contents buf

let print t = print_string (render t)

let fmt_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + 4) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fmt_float ?(decimals = 2) f = Numfmt.fixed decimals f
let fmt_pct ?(decimals = 1) f = Numfmt.fixed decimals (100. *. f) ^ "%"
let fmt_kb bytes = string_of_int ((bytes + 1023) / 1024) ^ " KB"
