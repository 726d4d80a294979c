(** The versioned wire protocol of [loclab serve].

    {b Frame layout.}  Every message — request or response — is one
    {!Store.Codec.Frame} envelope under the serve magic:

    {v
    "LOCSRV1\n" | payload length (int64 LE) | payload | CRC-32 (int64 LE)
    v}

    The CRC covers magic + length + payload, exactly as the artifact
    store's on-disk framing does, so truncation, garbage and bit flips
    are caught before any typed decoding runs.

    {b Versioning.}  The payload itself begins with a protocol version
    integer followed by a message tag.  This build speaks versions
    {!min_version} (1) through {!version} (2); version 2 inserts an
    optional {!trace_context} (flags word, then request-id string)
    between the version and the tag.  Encoders pick the version by
    presence: no trace context → version-1 bytes, byte-identical to a
    v1 build's output, so untraced new clients interoperate with old
    servers; a trace context → version 2.  A well-formed frame carrying
    an unknown version decodes to [Error (Unsupported v)] — the server
    answers it with a typed [Unsupported_version] error response
    (itself version 1, which any client necessarily understands)
    instead of dropping the connection, and {!Client} reacts by
    retrying without the trace context.

    Decoding never raises: every malformed input is a typed [Error]. *)

val version : int
(** The newest protocol version this build speaks (2). *)

val min_version : int
(** The oldest protocol version this build still decodes (1). *)

val magic : string
(** The frame magic, ["LOCSRV1\n"]. *)

val max_frame_bytes : int
(** Upper bound on a frame's payload length; {!read_frame} rejects
    bigger claims before allocating. *)

(** {1 Addresses} *)

type addr =
  | Unix_path of string  (** An [AF_UNIX] stream socket path. *)
  | Tcp of string * int  (** Host and port. *)

val addr_of_string : string -> (addr, string) result
(** Parse ["unix:PATH"], ["tcp:HOST:PORT"] (empty host means
    127.0.0.1), or a bare path (treated as a unix socket). *)

val addr_to_string : addr -> string

(** {1 Trace context} *)

type trace_context = {
  trace_id : string;
      (** Hex request id, 1–32 digits ({!Telemetry.Rctx.valid_id});
          the server adopts valid ids and mints replacements for
          invalid ones. *)
  trace_flags : int;  (** Bit 0: {!flag_force_sample}. *)
}

val flag_force_sample : int
(** Ask the server to write this request to the access log even when
    sampling would skip it. *)

(** {1 Messages} *)

type request =
  | Health
  | Stats
  | Metrics
  | Run_cell of { program : string; allocator : string; scale : float }
      (** One grid cell: answered from the store when warm, simulated
          (and written through) when cold. *)
  | Run_experiment of { id : string; scale : float }
      (** Render one experiment table/figure by id. *)
  | Ingest of { format : string; trace : string }
      (** Simulate an external trace capture ([trace] is the raw file
          bytes, [format] one of [Memsim.Trace.Source.all_formats]):
          answered from the store when the same event stream was seen
          before, simulated (and written through) when cold. *)

val request_kind : request -> string
(** Stable lowercase kind name (the metrics label). *)

type error_code =
  | Bad_request  (** Undecodable or ill-typed request payload. *)
  | Unknown_key  (** Unknown program / allocator / experiment id. *)
  | Unsupported_version  (** Client spoke a protocol version we don't. *)
  | Overloaded  (** Server shedding load (a request read after shutdown). *)
  | Internal  (** The handler itself failed; details in the message. *)

val error_code_to_string : error_code -> string

type stats = {
  uptime_seconds : float;
  connections : int;  (** Currently open protocol connections. *)
  requests : int;  (** Requests answered since start (any outcome). *)
  errors : int;  (** Requests answered with an [Error] response. *)
  warm_cells : int;  (** Cell requests served straight from the store. *)
  simulated_cells : int;  (** Cell requests that ran a simulation. *)
  inflight : int;  (** Requests currently executing. *)
  p50_us : float;  (** Request latency quantile estimates (microseconds), *)
  p99_us : float;  (** from the serve duration histogram. *)
}

type response =
  | Health_ok of { server_version : string; protocol_version : int }
  | Stats_ok of stats
  | Metrics_ok of string  (** Prometheus text exposition. *)
  | Cell_ok of { digest : string; artifact : string }
      (** [artifact] is the versioned [Core.Artifact] encoding — the
          exact bytes the store persists for [digest]. *)
  | Report_ok of string  (** A rendered table/figure, as [loclab run] prints. *)
  | Error of { code : error_code; message : string }

(** {1 Payload codec} *)

type decode_error =
  | Unsupported of int  (** Well-formed frame from a future protocol. *)
  | Malformed of string

val decode_error_to_string : decode_error -> string

val encode_request : ?trace:trace_context -> request -> string
(** Without [trace]: version-1 bytes (old servers decode them).  With
    [trace]: version 2. *)

val decode_request :
  string -> (request * trace_context option, decode_error) result
(** Never raises: truncation, unknown tags and trailing bytes are all
    [Malformed].  The context is [None] for version-1 payloads. *)

val encode_response : ?trace:trace_context -> response -> string
(** The server echoes the (possibly adopted) trace context back to
    version-2 requesters and omits it — version-1 bytes — otherwise. *)

val decode_response :
  string -> (response * trace_context option, decode_error) result

(** {1 Frame I/O}

    Blocking, EINTR-retrying socket I/O — a SIGINT aimed at graceful
    shutdown never tears a frame. *)

val write_frame : Unix.file_descr -> string -> unit
(** Frame a payload and write it whole.
    @raise Unix.Unix_error on I/O failure (e.g. [EPIPE]). *)

val read_frame :
  ?first:string -> Unix.file_descr -> (string option, string) result
(** Read one frame; [Ok None] on clean EOF before the first byte,
    [Error reason] on a torn frame, bad magic, oversized length claim
    or CRC mismatch.  [first] supplies bytes already consumed from the
    stream (the server's protocol sniff). *)
