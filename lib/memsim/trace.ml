(* Trace capture formats.

   A synthetic Workload run is not the only producer of reference
   events: a capture in any of these formats replays too.  Every
   reader streams packed {!Event.Batch} deliveries into a sink — no
   boxed [Event.t] on the hot path — so an externally captured trace
   flows through exactly the pipeline (forest, vmsim) that synthetic
   traffic does. *)

let framed_magic = "LOCTRC1\n"

module Source = struct
  type format = Binary | Text | Csv | Framed

  let format_to_string = function
    | Binary -> "binary"
    | Text -> "text"
    | Csv -> "csv"
    | Framed -> "framed"

  let all_formats =
    [ ("binary", Binary); ("text", Text); ("csv", Csv); ("framed", Framed) ]

  let format_of_string s =
    match List.assoc_opt (String.lowercase_ascii (String.trim s)) all_formats with
    | Some f -> Result.Ok f
    | None ->
        Result.Error
          (Printf.sprintf "unknown trace format %S (use binary|text|csv|framed)"
             s)

  let csv_header = "index,op,address"

  (* Recognise a trace's format from its leading bytes: both binary
     containers start with a fixed magic and the CSV export starts with
     its header row; anything else is read as cachetrace text. *)
  let sniff data =
    if String.starts_with ~prefix:Trace_file.magic data then Binary
    else if String.starts_with ~prefix:framed_magic data then Framed
    else
      let line_end =
        match String.index_opt data '\n' with
        | Some i -> i
        | None -> String.length data
      in
      let line_end =
        if line_end > 0 && data.[line_end - 1] = '\r' then line_end - 1
        else line_end
      in
      if String.lowercase_ascii (String.sub data 0 line_end) = csv_header then
        Csv
      else Text
end

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- text & CSV parsing helpers -------------------------------------- *)

(* Imported text/CSV events are address+kind only, normalised to one
   App byte each: meta 8 for reads, 12 for writes (see Event.Packed). *)
let read_meta = Event.Packed.meta ~kind:Event.Read ~source:Event.App ~size:1
let write_meta = Event.Packed.meta ~kind:Event.Write ~source:Event.App ~size:1

let is_blank data a b =
  let rec go i =
    i >= b || (match data.[i] with ' ' | '\t' -> go (i + 1) | _ -> false)
  in
  go a

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let bad what line_no data a b detail =
  let excerpt =
    let n = b - a in
    if n <= 60 then String.sub data a n else String.sub data a 57 ^ "..."
  in
  failwith
    (Printf.sprintf "Trace.%s: line %d: %s in %S" what line_no detail excerpt)

(* Parse an address field [a, b): optional 0x/0X prefix, then hex
   digits.  Addresses up to the native 63-bit int are accepted (well
   past 2^32); larger values are rejected, not silently wrapped. *)
let parse_addr what line_no data a b =
  let a =
    if b - a >= 2 && data.[a] = '0' && (data.[a + 1] = 'x' || data.[a + 1] = 'X')
    then a + 2
    else a
  in
  if a >= b then bad what line_no data a b "missing address";
  let acc = ref 0 in
  for i = a to b - 1 do
    let d = hex_val data.[i] in
    if d < 0 then bad what line_no data a b "bad hex digit in address";
    if !acc > (max_int - d) / 16 then
      bad what line_no data a b "address overflows 63 bits";
    acc := (!acc * 16) + d
  done;
  !acc

let parse_op what line_no data a b c =
  match c with
  | 'R' | 'r' -> read_meta
  | 'W' | 'w' -> write_meta
  | _ -> bad what line_no data a b "expected op R or W"

(* Shared line-driver: walks [data] line by line (accepting LF and
   CRLF, skipping blank lines), hands each non-blank line's [a, b)
   bounds and number to [parse], which pushes packed events into
   [batch].  Deliveries happen at the pipeline's standard batch
   grain. *)
let read_lines data sink parse =
  let batch = Event.Batch.create () in
  let cap = Event.Batch.capacity batch in
  let flush () =
    if batch.Event.Batch.len > 0 then begin
      sink batch;
      Event.Batch.clear batch
    end
  in
  let len = String.length data in
  let count = ref 0 in
  let line_no = ref 0 in
  let pos = ref 0 in
  while !pos < len do
    incr line_no;
    let eol =
      match String.index_from_opt data !pos '\n' with
      | Some i -> i
      | None -> len
    in
    let b = if eol > !pos && data.[eol - 1] = '\r' then eol - 1 else eol in
    if not (is_blank data !pos b) then begin
      if batch.Event.Batch.len = cap then flush ();
      parse !line_no !pos b batch;
      incr count
    end;
    pos := eol + 1
  done;
  flush ();
  !count

(* ---- the cachetrace text format -------------------------------------- *)

(* Grammar (per non-blank line): [RrWw] whitespace+ (0x|0X)? hexdigits,
   optionally followed by trailing whitespace. *)
module Text = struct
  let parse_line data line_no a b batch =
    let meta = parse_op "Text" line_no data a b data.[a] in
    let i = ref (a + 1) in
    while !i < b && (data.[!i] = ' ' || data.[!i] = '\t') do
      incr i
    done;
    if !i = a + 1 then
      bad "Text" line_no data a b "expected whitespace after op";
    let j = ref b in
    while !j > !i && (data.[!j - 1] = ' ' || data.[!j - 1] = '\t') do
      decr j
    done;
    let addr = parse_addr "Text" line_no data !i !j in
    Event.Batch.push batch ~addr ~meta

  let read data sink =
    read_lines data sink (fun line_no a b batch -> parse_line data line_no a b batch)

  let write f =
    let b = Buffer.create 4096 in
    f (fun (batch : Event.Batch.t) ->
        for i = 0 to batch.Event.Batch.len - 1 do
          let m = Array.unsafe_get batch.Event.Batch.metas i in
          Buffer.add_string b (if m land 4 = 0 then "R 0x" else "W 0x");
          Printf.bprintf b "%x\n" (Array.unsafe_get batch.Event.Batch.addrs i)
        done);
    Buffer.contents b
end

(* ---- per-access CSV (cachetrace's column layout) ---------------------- *)

(* Header row "index,op,address", then one row per access:
   0-based index, R/W, 0x-prefixed hex address. *)
module Csv = struct
  let parse_row data line_no a b batch =
    match String.index_from_opt data a ',' with
    | Some c1 when c1 < b -> (
        match String.index_from_opt data (c1 + 1) ',' with
        | Some c2 when c2 < b ->
            if c2 - c1 <> 2 then
              bad "Csv" line_no data a b "op column must be a single R or W";
            let meta = parse_op "Csv" line_no data a b data.[c1 + 1] in
            let addr = parse_addr "Csv" line_no data (c2 + 1) b in
            Event.Batch.push batch ~addr ~meta
        | _ -> bad "Csv" line_no data a b "expected index,op,address")
    | _ -> bad "Csv" line_no data a b "expected index,op,address"

  let read data sink =
    let seen_header = ref false in
    let lines =
      read_lines data sink (fun line_no a b batch ->
          if !seen_header then parse_row data line_no a b batch
          else begin
            let line = String.lowercase_ascii (String.sub data a (b - a)) in
            if String.trim line <> Source.csv_header then
              bad "Csv" line_no data a b
                (Printf.sprintf "expected header %S" Source.csv_header);
            seen_header := true
          end)
    in
    (* the header row is not an event *)
    lines - (if !seen_header then 1 else 0)

  let write f =
    let b = Buffer.create 4096 in
    Buffer.add_string b Source.csv_header;
    Buffer.add_char b '\n';
    let index = ref 0 in
    f (fun (batch : Event.Batch.t) ->
        for i = 0 to batch.Event.Batch.len - 1 do
          let m = Array.unsafe_get batch.Event.Batch.metas i in
          Printf.bprintf b "%d,%s,0x%x\n" !index
            (if m land 4 = 0 then "R" else "W")
            (Array.unsafe_get batch.Event.Batch.addrs i);
          incr index
        done);
    Buffer.contents b
end

(* ---- compact binary under the shared frame envelope ------------------- *)

(* A Trace_file byte stream wrapped in the store's self-checking
   [Binio.Frame] envelope (magic "LOCTRC1\n"), with the event count up
   front: [frame( int count | string trace-bytes )].  The CRC makes a
   framed trace safe to ship over the serve protocol or store on disk
   without trusting the transport. *)
module Framed = struct
  let read data sink =
    match Binio.Frame.unframe ~magic:framed_magic data with
    | Result.Error reason -> failwith ("Trace.Framed: " ^ reason)
    | Result.Ok payload -> (
        let r = Binio.Reader.of_string payload in
        match
          let count = Binio.Reader.int r in
          let trace = Binio.Reader.string r in
          if not (Binio.Reader.at_end r) then
            failwith "Trace.Framed: trailing bytes after trace payload";
          (count, trace)
        with
        | exception Binio.Error msg -> failwith ("Trace.Framed: " ^ msg)
        | count, trace ->
            let n = Trace_file.replay_string trace sink in
            if n <> count then
              failwith
                (Printf.sprintf
                   "Trace.Framed: header promises %d events but trace holds %d"
                   count n);
            n)

  let write f =
    let count = ref 0 in
    let trace =
      Trace_file.record_to_string (fun rec_sink ->
          f (fun batch ->
              count := !count + batch.Event.Batch.len;
              rec_sink batch))
    in
    let w = Binio.Writer.create () in
    Binio.Writer.int w !count;
    Binio.Writer.string w trace;
    Binio.Frame.frame ~magic:framed_magic (Binio.Writer.contents w)
end

(* ---- format dispatch -------------------------------------------------- *)

let read format data sink =
  match (format : Source.format) with
  | Source.Binary -> Trace_file.replay_string data sink
  | Source.Text -> Text.read data sink
  | Source.Csv -> Csv.read data sink
  | Source.Framed -> Framed.read data sink

let write format f =
  match (format : Source.format) with
  | Source.Binary -> Trace_file.record_to_string f
  | Source.Text -> Text.write f
  | Source.Csv -> Csv.write f
  | Source.Framed -> Framed.write f
