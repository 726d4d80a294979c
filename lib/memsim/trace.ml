(* Trace capture formats.

   A synthetic Workload run is not the only producer of reference
   events: a capture in any of these formats replays too.  Every
   reader streams packed {!Event.Batch} deliveries into a sink — no
   boxed [Event.t] on the hot path — so an externally captured trace
   flows through exactly the pipeline (forest, vmsim) that synthetic
   traffic does. *)

let binary_magic = "LOCLAB1\n"

(* ---- lines ------------------------------------------------------------ *)

(* Text and CSV are read line by line: a line ends at LF or at the end
   of the data, and its content drops one CR before the LF.  A line of
   spaces and tabs only is blank. *)
let line_end data a =
  match String.index_from_opt data a '\n' with
  | Some i -> i
  | None -> String.length data

let content_end data a eol =
  if eol > a && data.[eol - 1] = '\r' then eol - 1 else eol

let is_blank data a b =
  let rec go i =
    i >= b || (match data.[i] with ' ' | '\t' -> go (i + 1) | _ -> false)
  in
  go a

(* The first non-blank line at or after [pos], whose number is
   [line_no]: [Some (number, content start, content end, next line's
   start)]. *)
let rec first_line data pos line_no =
  if pos >= String.length data then None
  else
    let eol = line_end data pos in
    let b = content_end data pos eol in
    if is_blank data pos b then first_line data (eol + 1) (line_no + 1)
    else Some (line_no, pos, b, eol + 1)

module Source = struct
  type format = Binary | Text | Csv

  let format_to_string = function
    | Binary -> "binary"
    | Text -> "text"
    | Csv -> "csv"

  let all_formats = [ ("binary", Binary); ("text", Text); ("csv", Csv) ]

  let format_of_string s =
    match List.assoc_opt (String.lowercase_ascii (String.trim s)) all_formats with
    | Some f -> Result.Ok f
    | None ->
        Result.Error
          (Printf.sprintf "unknown trace format %S (use binary|text|csv)" s)

  let csv_header = "index,op,address"

  (* The one header rule, shared by [sniff] and the CSV reader: the
     first non-blank line, trimmed, compared case-insensitively. *)
  let is_csv_header data a b =
    String.lowercase_ascii (String.trim (String.sub data a (b - a)))
    = csv_header

  (* Recognise a trace's format from its leading bytes: a binary
     capture starts with its magic and the CSV export with its header
     row; anything else is read as cachetrace text. *)
  let sniff data =
    if String.starts_with ~prefix:binary_magic data then Binary
    else
      match first_line data 0 1 with
      | Some (_, a, b, _) when is_csv_header data a b -> Csv
      | _ -> Text
end

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- text & CSV line parsers ------------------------------------------ *)

(* Imported text/CSV events are address+kind only, normalised to one
   App byte each: meta 8 for reads, 12 for writes (see Event.Packed). *)
let read_meta = Event.Packed.meta ~kind:Event.Read ~source:Event.App ~size:1
let write_meta = Event.Packed.meta ~kind:Event.Write ~source:Event.App ~size:1

(* An op character's meta, or -1. *)
let op_meta = function
  | 'R' | 'r' -> read_meta
  | 'W' | 'w' -> write_meta
  | _ -> -1

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
  let meta = op_meta c in
  if meta < 0 then bad what line_no data a b "expected op R or W";
  meta

(* A text line's content [a, b), non-blank: [RrWw] whitespace+
   (0x|0X)? hexdigits, optionally followed by trailing whitespace. *)
let parse_text_line data line_no a b batch =
  let meta = parse_op "Text" line_no data a b data.[a] in
  let i = ref (a + 1) in
  while !i < b && (data.[!i] = ' ' || data.[!i] = '\t') do
    incr i
  done;
  if !i = a + 1 then bad "Text" line_no data a b "expected whitespace after op";
  let j = ref b in
  while !j > !i && (data.[!j - 1] = ' ' || data.[!j - 1] = '\t') do
    decr j
  done;
  let addr = parse_addr "Text" line_no data !i !j in
  Event.Batch.push batch ~addr ~meta

(* A CSV row's index field [a, c) must be the row's 0-based ordinal
   among the data rows, in decimal: what the writer emits, so a
   shuffled, spliced or hand-numbered capture is refused, not replayed
   in file order. *)
let parse_index line_no data a b c ordinal =
  if c = a then bad "Csv" line_no data a b "missing index";
  let v = ref 0 in
  for i = a to c - 1 do
    match data.[i] with
    | '0' .. '9' as ch ->
        let d = Char.code ch - Char.code '0' in
        v := if !v > (max_int - d) / 10 then max_int else (!v * 10) + d
    | _ -> bad "Csv" line_no data a b "index must be decimal digits"
  done;
  if !v <> ordinal then
    bad "Csv" line_no data a b (Printf.sprintf "expected index %d" ordinal)

(* A CSV row's content [a, b), non-blank: index,op,address with a
   one-character op, the [ordinal]-th data row. *)
let parse_csv_row data line_no a b ordinal batch =
  match String.index_from_opt data a ',' with
  | Some c1 when c1 < b -> (
      match String.index_from_opt data (c1 + 1) ',' with
      | Some c2 when c2 < b ->
          parse_index line_no data a b c1 ordinal;
          if c2 - c1 <> 2 then
            bad "Csv" line_no data a b "op column must be a single R or W";
          let meta = parse_op "Csv" line_no data a b data.[c1 + 1] in
          let addr = parse_addr "Csv" line_no data (c2 + 1) b in
          Event.Batch.push batch ~addr ~meta
      | _ -> bad "Csv" line_no data a b "expected index,op,address")
  | _ -> bad "Csv" line_no data a b "expected index,op,address"

(* ---- the one-pass text & CSV reader ----------------------------------- *)

(* Nearly every line of a capture is canonical, as the writers below
   render it: [R 0x<hex>\n] for text, [<index>,R,0x<hex>\n] for CSV.
   Such a line is parsed while it is scanned, straight into the batch.
   Any other line (blank, CRLF, tabs or runs of blanks, no 0x, 16 or
   more hex digits, no final newline, or malformed) goes to the line
   parsers above, so the grammar, the counts and every error message
   are theirs. *)

(* Per byte, its hex digit value, or 255. *)
let hex_digits =
  String.init 256 (fun i ->
      let d = hex_val (Char.chr i) in
      Char.chr (if d < 0 then 255 else d))

(* The canonical tail from [i]: 1 to 15 hex digits (which cannot
   overflow 63 bits), then LF.  Pushes the event and returns the next
   line's start, or returns -1 having pushed nothing. *)
let fast_addr data i meta batch =
  let len = String.length data in
  let stop = Int.min len (i + 15) in
  let j = ref i and acc = ref 0 and digits = ref true in
  while !digits && !j < stop do
    let d =
      Char.code
        (String.unsafe_get hex_digits (Char.code (String.unsafe_get data !j)))
    in
    if d < 16 then begin
      acc := (!acc lsl 4) lor d;
      incr j
    end
    else digits := false
  done;
  if !j > i && !j < len && String.unsafe_get data !j = '\n' then begin
    Event.Batch.push batch ~addr:!acc ~meta;
    !j + 1
  end
  else -1

(* [RrWw] ' ' 0x at [p], then the canonical tail. *)
let fast_text data p batch =
  if p + 5 >= String.length data then -1
  else
    let meta = op_meta (String.unsafe_get data p) in
    if
      meta < 0
      || String.unsafe_get data (p + 1) <> ' '
      || String.unsafe_get data (p + 2) <> '0'
      || String.unsafe_get data (p + 3) <> 'x'
    then -1
    else fast_addr data (p + 4) meta batch

(* 1 to 18 decimal digits spelling [ordinal] , [RrWw] , 0x at [p], then
   the canonical tail. *)
let fast_csv data p ordinal batch =
  let len = String.length data in
  let stop = Int.min len (p + 18) in
  let j = ref p and v = ref 0 in
  while
    !j < stop
    && match String.unsafe_get data !j with '0' .. '9' -> true | _ -> false
  do
    v := (!v * 10) + Char.code (String.unsafe_get data !j) - Char.code '0';
    incr j
  done;
  let j = !j in
  if j = p || !v <> ordinal || j + 6 >= len || String.unsafe_get data j <> ','
  then -1
  else
    let meta = op_meta (String.unsafe_get data (j + 1)) in
    if
      meta < 0
      || String.unsafe_get data (j + 2) <> ','
      || String.unsafe_get data (j + 3) <> '0'
      || String.unsafe_get data (j + 4) <> 'x'
    then -1
    else fast_addr data (j + 5) meta batch

(* Reads the lines of [data] from [pos], the first numbered [line_no],
   into [sink] at the pipeline's batch grain; returns the event count. *)
let scan ~csv data pos line_no sink =
  let batch = Event.Batch.create () in
  let cap = Event.Batch.capacity batch in
  let len = String.length data in
  let delivered = ref 0 in
  let pos = ref pos and line_no = ref line_no in
  while !pos < len do
    if batch.Event.Batch.len = cap then begin
      sink batch;
      delivered := !delivered + cap;
      Event.Batch.clear batch
    end;
    let p = !pos in
    (* Every data row pushes one event, so this is the row's ordinal. *)
    let ordinal = !delivered + batch.Event.Batch.len in
    let next =
      if csv then fast_csv data p ordinal batch else fast_text data p batch
    in
    if next >= 0 then pos := next
    else begin
      let eol = line_end data p in
      let b = content_end data p eol in
      if not (is_blank data p b) then
        if csv then parse_csv_row data !line_no p b ordinal batch
        else parse_text_line data !line_no p b batch;
      pos := eol + 1
    end;
    incr line_no
  done;
  if batch.Event.Batch.len > 0 then sink batch;
  !delivered + batch.Event.Batch.len

(* ---- text & CSV writers ----------------------------------------------- *)

(* Lines are formatted into a reused scratch, appended to the buffer
   whenever fewer than [max_line] bytes are left in it; the longest
   line, a CSV row of a 19-digit index and a 16-digit address, takes
   41. *)
let scratch_size = 4096
let max_line = 64

(* The digits [%x] prints for [v], read as 63 unsigned bits. *)
let put_hex s pos v =
  let rec width v n = if v lsr 4 = 0 then n else width (v lsr 4) (n + 1) in
  let n = width v 1 in
  let v = ref v in
  for i = pos + n - 1 downto pos do
    Bytes.unsafe_set s i (String.unsafe_get "0123456789abcdef" (!v land 15));
    v := !v lsr 4
  done;
  pos + n

(* The digits [%d] prints for [v >= 0]. *)
let put_dec s pos v =
  let rec width v n = if v < 10 then n else width (v / 10) (n + 1) in
  let n = width v 1 in
  let v = ref v in
  for i = pos + n - 1 downto pos do
    Bytes.unsafe_set s i (Char.unsafe_chr (48 + (!v mod 10)));
    v := !v / 10
  done;
  pos + n

(* Encodes [batch] line by line: [line s pos addr meta] writes one line
   at [pos] of the scratch [s] and returns its end. *)
let encode_lines b s line (batch : Event.Batch.t) =
  let pos = ref 0 in
  for i = 0 to batch.Event.Batch.len - 1 do
    if !pos > scratch_size - max_line then begin
      Buffer.add_subbytes b s 0 !pos;
      pos := 0
    end;
    pos :=
      line s !pos
        (Array.unsafe_get batch.Event.Batch.addrs i)
        (Array.unsafe_get batch.Event.Batch.metas i)
  done;
  Buffer.add_subbytes b s 0 !pos

(* ---- the cachetrace text format -------------------------------------- *)

module Text = struct
  let read data sink = scan ~csv:false data 0 1 sink

  type state = Bytes.t

  let start (_ : Buffer.t) = Bytes.create scratch_size

  let line s pos addr meta =
    Bytes.unsafe_set s pos (if meta land 4 = 0 then 'R' else 'W');
    Bytes.unsafe_set s (pos + 1) ' ';
    Bytes.unsafe_set s (pos + 2) '0';
    Bytes.unsafe_set s (pos + 3) 'x';
    let pos = put_hex s (pos + 4) addr in
    Bytes.unsafe_set s pos '\n';
    pos + 1

  let encode b (s : state) batch = encode_lines b s line batch
end

(* ---- per-access CSV (cachetrace's column layout) ---------------------- *)

(* Header row "index,op,address", then one row per access: its 0-based
   index among the rows (checked on read), R/W, 0x-prefixed hex
   address. *)
module Csv = struct
  let read data sink =
    match first_line data 0 1 with
    | None -> 0
    | Some (line_no, a, b, next) ->
        if not (Source.is_csv_header data a b) then
          bad "Csv" line_no data a b
            (Printf.sprintf "expected header %S" Source.csv_header);
        scan ~csv:true data next (line_no + 1) sink

  type state = { scratch : Bytes.t; mutable index : int }

  let start b =
    Buffer.add_string b Source.csv_header;
    Buffer.add_char b '\n';
    { scratch = Bytes.create scratch_size; index = 0 }

  let encode b st batch =
    encode_lines b st.scratch
      (fun s pos addr meta ->
        let pos = put_dec s pos st.index in
        st.index <- st.index + 1;
        Bytes.unsafe_set s pos ',';
        Bytes.unsafe_set s (pos + 1) (if meta land 4 = 0 then 'R' else 'W');
        Bytes.unsafe_set s (pos + 2) ',';
        Bytes.unsafe_set s (pos + 3) '0';
        Bytes.unsafe_set s (pos + 4) 'x';
        let pos = put_hex s (pos + 5) addr in
        Bytes.unsafe_set s pos '\n';
        pos + 1)
      batch
end

(* ---- the compact binary capture --------------------------------------- *)

(* Magic "LOCLAB1\n", then per event a flags byte, an escaped size when
   the flags say so, and the zigzag varint of the address delta from the
   previous event (the first from 0):

     bit 0        kind (0 = read, 1 = write)
     bits 1-2     source (0 app, 1 malloc, 2 free)
     bits 3-7     size: 1..30 inline, 31 = a size varint follows

   Varints are LEB128 over the 63 bits of an int, at most 9 bytes.
   Both directions convert to and from the packed meta word
   ([size lsl 3 lor kind lsl 2 lor source], see {!Event.Packed}) with
   shifts and masks alone.  Address locality makes typical traces ~2-3
   bytes per reference. *)
module Binary = struct
  (* One page.  Every producer emits words or less, and a consumer walks
     each block an event spans, so the size bounds what one event can
     cost downstream. *)
  let max_size = 4096

  let add_varint b v =
    let v = ref v in
    while !v land lnot 0x7f <> 0 do
      Buffer.add_char b (Char.unsafe_chr (!v land 0x7f lor 0x80));
      v := !v lsr 7
    done;
    Buffer.add_char b (Char.unsafe_chr !v)

  (* Over the full int range: deltas of addresses in [0, max_int] span
     63 signed bits, and their zigzag all 63 unsigned ones. *)
  let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
  let unzigzag v = (v lsr 1) lxor (-(v land 1))

  (* The last address encoded. *)
  type state = int ref

  let start b =
    Buffer.add_string b binary_magic;
    ref 0

  (* Appends [batch] to [b]; the state carries the last address across
     batches. *)
  let encode b (prev : state) (batch : Event.Batch.t) =
    for i = 0 to batch.Event.Batch.len - 1 do
      let addr = Array.unsafe_get batch.Event.Batch.addrs i in
      let meta = Array.unsafe_get batch.Event.Batch.metas i in
      let size = meta lsr 3 in
      let size_field = if size >= 1 && size <= 30 then size else 31 in
      Buffer.add_char b
        (Char.unsafe_chr
           (((meta lsr 2) land 1) lor ((meta land 3) lsl 1)
           lor (size_field lsl 3)));
      if size_field = 31 then add_varint b size;
      add_varint b (zigzag (addr - !prev));
      prev := addr
    done

  (* Decode failures carry the byte offset of the event's flags byte and
     the byte itself in hex, so damage in a multi-MB trace can be
     located directly with dd/xxd. *)
  let corrupt off flags fmt =
    Printf.ksprintf
      (fun s ->
        failwith
          (Printf.sprintf "Trace.Binary: byte %d (flags 0x%02x): %s" off flags
             s))
      fmt

  (* Reads the varint at [!pos] and advances [pos] past it. *)
  let varint data pos ~off ~flags =
    let len = String.length data in
    let acc = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      let p = !pos in
      if p >= len then corrupt off flags "truncated event";
      let byte = Char.code (String.unsafe_get data p) in
      pos := p + 1;
      acc := !acc lor ((byte land 0x7f) lsl !shift);
      if byte land 0x80 = 0 then more := false
      else if !shift = 56 then corrupt off flags "varint overflows 63 bits"
      else shift := !shift + 7
    done;
    !acc

  let read data (sink : Sink.t) =
    if not (String.starts_with ~prefix:binary_magic data) then
      failwith "Trace.Binary: not a loclab trace";
    (* Deliver at the pipeline's batch grain: order-preserving, one
       downstream dispatch per 256 events. *)
    let batch = Event.Batch.create () in
    let cap = Event.Batch.capacity batch in
    let len = String.length data in
    let pos = ref (String.length binary_magic) in
    let prev = ref 0 in
    let count = ref 0 in
    while !pos < len do
      if batch.Event.Batch.len = cap then begin
        sink batch;
        Event.Batch.clear batch
      end;
      let off = !pos in
      let flags = Char.code (String.unsafe_get data off) in
      pos := off + 1;
      let source = (flags lsr 1) land 3 in
      if source = 3 then corrupt off flags "bad source 3";
      let size_field = flags lsr 3 in
      let size =
        if size_field = 31 then varint data pos ~off ~flags else size_field
      in
      if size < 1 || size > max_size then
        corrupt off flags "event size %d outside 1..%d" size max_size;
      let addr = !prev + unzigzag (varint data pos ~off ~flags) in
      if addr < 0 then corrupt off flags "address below 0";
      prev := addr;
      Event.Batch.push batch ~addr
        ~meta:((size lsl 3) lor ((flags land 1) lsl 2) lor source);
      incr count
    done;
    if batch.Event.Batch.len > 0 then sink batch;
    !count
end

(* ---- format dispatch -------------------------------------------------- *)

let read format data sink =
  match (format : Source.format) with
  | Source.Binary -> Binary.read data sink
  | Source.Text -> Text.read data sink
  | Source.Csv -> Csv.read data sink

(* Appends [format]'s preamble to [b] and returns the sink that appends
   the encoding of each batch it receives. *)
let encoder format b : Sink.t =
  match (format : Source.format) with
  | Source.Binary -> Binary.encode b (Binary.start b)
  | Source.Text -> Text.encode b (Text.start b)
  | Source.Csv -> Csv.encode b (Csv.start b)

let write format f =
  let b = Buffer.create 4096 in
  f (encoder format b);
  Buffer.contents b

(* The encoding streamed to a channel: the buffer is drained whenever
   it passes [chunk] bytes, so a long run or a large transcode never
   holds its whole output in memory. *)
let record ~format oc f =
  let chunk = 65536 in
  let b = Buffer.create (2 * chunk) in
  let encode = encoder format b in
  let result =
    f (fun batch ->
        encode batch;
        if Buffer.length b >= chunk then begin
          Buffer.output_buffer oc b;
          Buffer.clear b
        end)
  in
  Buffer.output_buffer oc b;
  result
