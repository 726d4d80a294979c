(** Trace capture formats.

    Besides a synthetic workload run, a reference trace can come from a
    recorded binary capture, an external cachetrace-style text capture
    or a per-access CSV export.  Every reader streams packed
    {!Event.Batch} deliveries into a sink — no boxed [Event.t] on the
    hot path — so external traffic flows through exactly the pipeline
    synthetic traffic does.

    Formats:
    - {b text} (cachetrace): one access per line, [R 0xADDR] /
      [W 0xADDR].  Readers accept lowercase [r]/[w], an optional
      [0x]/[0X] prefix, CRLF line endings, blank lines, and addresses up
      to the native 63-bit int.  Imported events are normalised to
      size 1, source [App].
    - {b csv}: header row [index,op,address] (the first non-blank
      line, trimmed, any case), then one row per access: 0-based index,
      [R]/[W], [0x]-prefixed hex address (cachetrace's per-access column
      layout, for differential testing).  The index must be the row's
      0-based ordinal among the data rows, in decimal digits, as the
      writer numbers them: a row out of sequence (a shuffled or spliced
      capture), an empty index or a non-numeric one is an error naming
      its line, never a silent reordering.
    - {b binary}: magic ["LOCLAB1\n"], then per event a flags byte
      (kind, source, sizes 1..30 inline), an escaped size varint for
      larger sizes, and the zigzag varint of the address delta from the
      previous event.  Lossless; typical traces take ~2–3 bytes per
      reference.  The reader bounds what one event can ask for: sizes
      1..4096, varints of at most 63 bits, addresses of at least 0.

    The text and CSV readers make one pass over the bytes: a canonical
    line, as the writers render it ([R 0x1f] / [3,W,0x1f], LF-ended,
    1 to 15 hex digits), is parsed while it is scanned; any other line
    falls back to the general line parser, so both paths accept the
    same grammar and fail with the same messages.  The writers format
    each line with integer loops into a reused scratch; their bytes are
    [Printf]'s ["%x"] and ["%d"].

    All readers raise [Failure] with a located message on malformed
    input: the line number for text/CSV, and for binary the byte offset
    and flags byte of the damaged event (e.g. ["Trace.Binary: byte 8
    (flags 0xf8): event size 68719476736 outside 1..4096"]), so
    corruption in a multi-MB capture can be found with a hex dump. *)

module Source : sig
  type format = Binary | Text | Csv

  val format_to_string : format -> string

  val format_of_string : string -> (format, string) result
  (** Case-insensitive; [Error] names the accepted spellings. *)

  val all_formats : (string * format) list
  (** [(name, format)] pairs, for CLI enumerations. *)

  val csv_header : string
  (** The CSV header row, ["index,op,address"]. *)

  val sniff : string -> format
  (** Recognise a trace's format from its leading bytes: the binary
      magic and the CSV header are unambiguous; anything else is read
      as text.  The header is found by the CSV reader's own rule, so a
      capture sniffed as CSV is one [read Csv] accepts the header of. *)
end

val slurp : string -> string
(** Read a whole file (binary-safe). *)

val read : Source.format -> string -> Sink.t -> int
(** [read format data sink] streams the encoded trace [data] into
    [sink] as packed batches and returns the event count.
    @raise Failure on malformed input, with the line number (text/CSV)
    or byte offset (binary) in the message. *)

val write : Source.format -> (Sink.t -> unit) -> string
(** [write format f] runs [f] with a sink that encodes everything it
    receives, and returns the encoded trace.  Text and CSV carry kind
    and address only (size and source are not representable); binary
    is lossless. *)

val record : format:Source.format -> out_channel -> (Sink.t -> 'a) -> 'a
(** [record ~format oc f] runs [f] with a sink that streams the [format]
    encoding of everything it receives to [oc] in 64 KiB chunks; once
    [f] returns, [oc] has received the bytes [write format] would
    return.  The channel is left open.  If [f] raises, the chunks
    already drained stay written and the rest is dropped. *)
