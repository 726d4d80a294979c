(* Trace capture formats.

   A synthetic Workload run is not the only producer of reference
   events: a capture in any of these formats replays too.  Every
   reader streams packed {!Event.Batch} deliveries into a sink — no
   boxed [Event.t] on the hot path — so an externally captured trace
   flows through exactly the pipeline (forest, vmsim) that synthetic
   traffic does. *)

let binary_magic = "LOCLAB1\n"

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

  (* Recognise a trace's format from its leading bytes: a binary
     capture starts with its magic and the CSV export starts with its
     header row; anything else is read as cachetrace text. *)
  let sniff data =
    if String.starts_with ~prefix:binary_magic data then Binary
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

  (* Appends [batch] to [b]; [prev] carries the last address across
     batches. *)
  let encode b prev (batch : Event.Batch.t) =
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

  let write f =
    let b = Buffer.create 4096 in
    Buffer.add_string b binary_magic;
    let prev = ref 0 in
    f (encode b prev);
    Buffer.contents b

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

let write format f =
  match (format : Source.format) with
  | Source.Binary -> Binary.write f
  | Source.Text -> Text.write f
  | Source.Csv -> Csv.write f

(* The binary encoding streamed to a file: the buffer is drained to the
   channel whenever it passes [chunk] bytes, so a long run never holds
   its whole capture in memory. *)
let record path f =
  let chunk = 65536 in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let b = Buffer.create (2 * chunk) in
  Buffer.add_string b binary_magic;
  let prev = ref 0 in
  let result =
    f (fun batch ->
        Binary.encode b prev batch;
        if Buffer.length b >= chunk then begin
          Buffer.output_buffer oc b;
          Buffer.clear b
        end)
  in
  Buffer.output_buffer oc b;
  result
