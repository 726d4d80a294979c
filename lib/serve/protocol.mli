(** The versioned wire protocol of [loclab serve].

    {b Frame layout.}  Every message — request or response — is one
    {!Binio.Frame} envelope under the serve magic:

    {v
    "LOCSRV1\n" | payload length (int64 LE) | payload | CRC-32 (int64 LE)
    v}

    The CRC covers the payload, exactly as the artifact store's on-disk
    framing does; with the magic and the length check, truncation,
    garbage and bit flips are caught before any typed decoding runs.

    {b Payload.}  Every payload is

    {v
    version (3) | request id | message tag | message fields
    v}

    The request id is a client-chosen hex string
    ({!Telemetry.Rctx.valid_id}); an empty or invalid one asks the
    server to mint one, and every reply carries the id the server
    adopted.  {!version} is the only version this build speaks: a
    well-formed frame carrying any other decodes to
    [Error (Unsupported v)], which the server answers with a typed
    [Unsupported_version] error response (itself version 3) instead of
    dropping the connection.

    Decoding never raises: every malformed input is a typed [Error]. *)

val version : int
(** The one protocol version this build speaks (3). *)

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

val resolve_host : string -> Unix.inet_addr
(** A dotted IPv4 address, or the first IPv4 address [getaddrinfo]
    gives for a host name.
    @raise Failure when the name does not resolve. *)

(** {1 Messages} *)

type request =
  | Health
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

type response =
  | Health_ok of { server_version : string; protocol_version : int }
  | Cell_ok of { digest : string; artifact : string }
      (** [artifact] is the versioned [Core.Artifact] encoding — the
          exact bytes the store persists for [digest]. *)
  | Report_ok of string  (** A rendered table/figure, as [loclab run] prints. *)
  | Error of { code : error_code; message : string }

(** {1 Payload codec} *)

type decode_error =
  | Unsupported of int  (** Well-formed frame of another protocol version. *)
  | Malformed of string

val decode_error_to_string : decode_error -> string

val encode_request : ?id:string -> request -> string
(** [id] (default [""]: the server mints one) is the request id. *)

val decode_request :
  ?off:int -> ?len:int -> string -> (request * string, decode_error) result
(** The request and its id, decoded from the [len] bytes at [off]
    (default: the whole string), in place.  Never raises: truncation,
    unknown tags and trailing bytes are all [Malformed].
    @raise Invalid_argument only when [off] and [len] do not name a
    substring. *)

val encode_response : ?id:string -> response -> string
(** The server passes the id it adopted for the request. *)

val decode_response :
  ?off:int -> ?len:int -> string -> (response * string, decode_error) result
(** As {!decode_request}. *)

(** {1 Frame I/O}

    Blocking, EINTR-retrying socket I/O — a SIGINT aimed at graceful
    shutdown never tears a frame. *)

val write_all : Unix.file_descr -> string -> int -> int -> unit
(** [write_all fd s pos len] writes [len] bytes of [s] from [pos].
    @raise Unix.Unix_error on I/O failure (e.g. [EPIPE]). *)

val write_frame : Unix.file_descr -> string -> unit
(** Frame a payload and write it whole.
    @raise Unix.Unix_error on I/O failure (e.g. [EPIPE]). *)

type payload = { frame : string; off : int; len : int }
(** A verified payload where it arrived: the [len] bytes at [off] of the
    whole frame [read_frame] read.  Decode it in place with
    [decode_request ~off ~len frame]. *)

val read_frame :
  ?first:string -> Unix.file_descr -> (payload option, string) result
(** Read one frame into one buffer of its exact size and check it there;
    [Ok None] on clean EOF before the first byte, [Error reason] on a
    torn frame, bad magic, oversized length claim or CRC mismatch.
    [first] supplies bytes already consumed from the stream (the
    server's protocol sniff). *)
