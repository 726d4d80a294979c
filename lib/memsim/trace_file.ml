let magic = "LOCLAB1\n"

(* Flags byte layout:
   bit 0        kind (0 = read, 1 = write)
   bits 1-2     source (0 app, 1 malloc, 2 free)
   bits 3-7     size field: 1..30 inline, 31 = escaped varint follows

   Both directions convert to and from the packed meta word
   ([size lsl 3 lor kind lsl 2 lor source], see {!Event.Packed}) with
   shifts and masks alone. *)

(* Decode failures carry the byte offset of the event's flags byte and
   the byte itself in hex, so damage in a multi-MB trace can be located
   directly with dd/xxd instead of re-reading the whole file. *)
let corrupt off flags fmt =
  Printf.ksprintf
    (fun s ->
      failwith (Printf.sprintf "Trace_file: byte %d (flags 0x%02x): %s" off flags s))
    fmt

(* Writers emit through a [put]-one-byte callback so the same encoder
   serves channels (record_to_file) and in-memory buffers
   (record_to_string). *)
let write_varint put v =
  assert (v >= 0);
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      put byte;
      continue := false
    end
    else put (byte lor 0x80)
  done

let zigzag v = if v >= 0 then v lsl 1 else ((-v) lsl 1) - 1
let unzigzag v = if v land 1 = 0 then v lsr 1 else -((v + 1) lsr 1)

let write_event put prev_addr ~addr ~meta =
  let size = meta lsr 3 in
  let size_field = if size >= 1 && size <= 30 then size else 31 in
  let flags =
    ((meta lsr 2) land 1) lor ((meta land 3) lsl 1) lor (size_field lsl 3)
  in
  put flags;
  if size_field = 31 then write_varint put size;
  write_varint put (zigzag (addr - prev_addr))

let recording_sink put : Sink.t =
  let prev = ref 0 in
  fun b ->
    for i = 0 to b.Event.Batch.len - 1 do
      let addr = Array.unsafe_get b.Event.Batch.addrs i in
      write_event put !prev ~addr ~meta:(Array.unsafe_get b.Event.Batch.metas i);
      prev := addr
    done

let record_to_file path f =
  let oc = open_out_bin path in
  output_string oc magic;
  let sink = recording_sink (output_byte oc) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f sink)

let record_to_string f =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  f (recording_sink (fun byte -> Buffer.add_char b (Char.unsafe_chr byte)));
  Buffer.contents b

(* Readers run over a cursor so channels and in-memory strings share
   one decoder; [pos] reports absolute byte offsets for diagnostics. *)
type cursor = {
  input_byte : unit -> int;  (* raises End_of_file when exhausted *)
  pos : unit -> int;
}

let read_varint cur =
  let rec go shift acc =
    let byte = cur.input_byte () in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

(* Decodes the next event straight into [batch], advancing [prev] to its
   address; [false] on clean end-of-trace.  A truncated event is
   corruption. *)
let read_event cur prev batch =
  let off = cur.pos () in
  match cur.input_byte () with
  | exception End_of_file -> false
  | flags -> (
      try
        let source = (flags lsr 1) land 3 in
        if source = 3 then corrupt off flags "bad source %d" source;
        let size_field = flags lsr 3 in
        let size = if size_field = 31 then read_varint cur else size_field in
        if size < 1 then corrupt off flags "corrupt size %d" size;
        let addr = !prev + unzigzag (read_varint cur) in
        prev := addr;
        Event.Batch.push batch ~addr
          ~meta:((size lsl 3) lor ((flags land 1) lsl 2) lor source);
        true
      with End_of_file -> corrupt off flags "truncated event")

let replay_cursor cur (sink : Sink.t) =
  (* Deliver at the pipeline's batch grain: order-preserving, one
     downstream dispatch per 256 events. *)
  let batch = Event.Batch.create () in
  let cap = Event.Batch.capacity batch in
  let flush () =
    if batch.Event.Batch.len > 0 then begin
      sink batch;
      Event.Batch.clear batch
    end
  in
  let prev = ref 0 in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    if batch.Event.Batch.len = cap then flush ();
    if read_event cur prev batch then incr count else continue := false
  done;
  flush ();
  !count

let replay ic sink =
  let header =
    try really_input_string ic (String.length magic)
    with End_of_file -> failwith "Trace_file: truncated header"
  in
  if header <> magic then failwith "Trace_file: not a loclab trace";
  replay_cursor
    { input_byte = (fun () -> input_byte ic); pos = (fun () -> pos_in ic) }
    sink

let replay_string data sink =
  let mlen = String.length magic in
  if String.length data < mlen || String.sub data 0 mlen <> magic then
    failwith "Trace_file: not a loclab trace";
  let pos = ref mlen in
  let len = String.length data in
  let input_byte () =
    if !pos >= len then raise End_of_file
    else begin
      let c = Char.code (String.unsafe_get data !pos) in
      incr pos;
      c
    end
  in
  replay_cursor { input_byte; pos = (fun () -> !pos) } sink

let replay_file path sink =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> replay ic sink)
