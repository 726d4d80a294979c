(** Trace capture formats.

    Besides a synthetic workload run, a reference trace can come from a
    recorded {!Trace_file}, an external cachetrace-style text capture, a
    per-access CSV export, or a compact CRC-framed binary.  Every
    reader streams packed {!Event.Batch} deliveries into a sink — no
    boxed [Event.t] on the hot path — so external traffic flows through
    exactly the pipeline synthetic traffic does.

    Formats:
    - {b text} (cachetrace): one access per line, [R 0xADDR] /
      [W 0xADDR].  Readers accept lowercase [r]/[w], an optional
      [0x]/[0X] prefix, CRLF line endings, blank lines, and addresses up
      to the native 63-bit int.  Imported events are normalised to
      size 1, source [App].
    - {b csv}: header row [index,op,address], then one row per access:
      0-based index, [R]/[W], [0x]-prefixed hex address (cachetrace's
      per-access column layout, for differential testing).
    - {b binary}: the {!Trace_file} encoding, verbatim.
    - {b framed}: a binary trace wrapped in the store's self-checking
      frame envelope (magic ["LOCTRC1\n"]) with the event count up
      front — safe to ship over the serve protocol.

    All readers raise [Failure] with a located message (line number for
    text/CSV, byte offset for binary) on malformed input. *)

val framed_magic : string

module Source : sig
  type format = Binary | Text | Csv | Framed

  val format_to_string : format -> string

  val format_of_string : string -> (format, string) result
  (** Case-insensitive; [Error] names the accepted spellings. *)

  val all_formats : (string * format) list
  (** [(name, format)] pairs, for CLI enumerations. *)

  val csv_header : string
  (** The CSV header row, ["index,op,address"]. *)

  val sniff : string -> format
  (** Recognise a trace's format from its leading bytes: the binary
      magics and the CSV header are unambiguous; anything else is read
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
    and framed are lossless. *)
