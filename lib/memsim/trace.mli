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
    - {b csv}: header row [index,op,address], then one row per access:
      0-based index, [R]/[W], [0x]-prefixed hex address (cachetrace's
      per-access column layout, for differential testing).
    - {b binary}: magic ["LOCLAB1\n"], then per event a flags byte
      (kind, source, sizes 1..30 inline), an escaped size varint for
      larger sizes, and the zigzag varint of the address delta from the
      previous event.  Lossless; typical traces take ~2–3 bytes per
      reference.  The reader bounds what one event can ask for: sizes
      1..4096, varints of at most 63 bits, addresses of at least 0.

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
      as text. *)
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

val record : string -> (Sink.t -> 'a) -> 'a
(** [record path f] runs [f] with a sink that streams the binary
    encoding of everything it receives to [path], in bounded chunks;
    the file holds the bytes [write Binary] would return.  The file is
    closed afterwards, also on exceptions. *)
