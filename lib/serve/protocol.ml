(* The versioned wire protocol of `loclab serve`.

   Requests and responses travel as CRC-guarded length-framed payloads
   (the same Binio.Frame envelope the artifact store uses on disk,
   under a serve-specific magic), and the payloads themselves are
   Binio field sequences: protocol version, request id, tag,
   fields.  A frame is therefore self-checking end to end: truncation,
   garbage and bit flips are detected before any typed decoding runs,
   and typed decoding itself never raises — every failure is an
   [Error] the server answers with a typed error response. *)

let version = 3
let magic = "LOCSRV1\n"

(* Cap a frame well above any artifact or rendered report (the largest
   real payload is a full experiment rendering, tens of KiB) but low
   enough that a hostile or corrupt length field cannot make the server
   allocate unbounded memory. *)
let max_frame_bytes = 64 * 1024 * 1024

(* ---- addresses ------------------------------------------------------ *)

type addr = Unix_path of string | Tcp of string * int

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let addr_of_string s =
  let invalid msg = Result.Error msg in
  if s = "" then invalid "empty listen address"
  else
  match String.index_opt s ':' with
  | None -> Result.Ok (Unix_path s) (* a bare path serves over AF_UNIX *)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" ->
          if rest = "" then invalid "unix: address needs a socket path"
          else Result.Ok (Unix_path rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> invalid "tcp: address must be tcp:HOST:PORT"
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p >= 0 && p <= 0xFFFF ->
                  Result.Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
              | _ -> invalid (Printf.sprintf "bad tcp port %S" port)))
      | other ->
          invalid
            (Printf.sprintf "unknown address scheme %S (use unix: or tcp:)"
               other))

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> addr
      | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))

(* ---- requests ------------------------------------------------------- *)

type request =
  | Health
  | Run_cell of { program : string; allocator : string; scale : float }
  | Run_experiment of { id : string; scale : float }
  | Ingest of { format : string; trace : string }

let request_kind = function
  | Health -> "health"
  | Run_cell _ -> "cell"
  | Run_experiment _ -> "experiment"
  | Ingest _ -> "ingest"

(* ---- responses ------------------------------------------------------ *)

type error_code =
  | Bad_request  (** Undecodable or ill-typed request payload. *)
  | Unknown_key  (** Unknown program / allocator / experiment id. *)
  | Unsupported_version  (** Client spoke a protocol version we don't. *)
  | Overloaded  (** Server shedding load (shutdown, or queue refusal). *)
  | Internal  (** The handler itself failed; details in the message. *)

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_key -> "unknown_key"
  | Unsupported_version -> "unsupported_version"
  | Overloaded -> "overloaded"
  | Internal -> "internal"

let error_code_to_int = function
  | Bad_request -> 1
  | Unknown_key -> 2
  | Unsupported_version -> 3
  | Overloaded -> 4
  | Internal -> 5

let error_code_of_int = function
  | 1 -> Some Bad_request
  | 2 -> Some Unknown_key
  | 3 -> Some Unsupported_version
  | 4 -> Some Overloaded
  | 5 -> Some Internal
  | _ -> None

type response =
  | Health_ok of { server_version : string; protocol_version : int }
  | Cell_ok of { digest : string; artifact : string }
      (** [artifact] is the versioned [Core.Artifact] encoding — the
          exact bytes the store persists for [digest]. *)
  | Report_ok of string  (** A rendered table/figure, as [loclab run] prints. *)
  | Error of { code : error_code; message : string }

(* ---- payload codec -------------------------------------------------- *)

type decode_error =
  | Unsupported of int  (** Well-formed frame from a future protocol. *)
  | Malformed of string

let decode_error_to_string = function
  | Unsupported v -> Printf.sprintf "unsupported protocol version %d" v
  | Malformed msg -> msg

(* Every payload opens with the version and the request id; an empty
   id asks the server to mint one. *)
let write_envelope w id =
  Binio.Writer.int w version;
  Binio.Writer.string w id

let encode_request ?(id = "") req =
  let w = Binio.Writer.create () in
  write_envelope w id;
  (match req with
  | Health -> Binio.Writer.int w 0
  | Run_cell { program; allocator; scale } ->
      Binio.Writer.int w 3;
      Binio.Writer.string w program;
      Binio.Writer.string w allocator;
      Binio.Writer.float w scale
  | Run_experiment { id; scale } ->
      Binio.Writer.int w 4;
      Binio.Writer.string w id;
      Binio.Writer.float w scale
  | Ingest { format; trace } ->
      Binio.Writer.int w 5;
      Binio.Writer.string w format;
      Binio.Writer.string w trace);
  Binio.Writer.contents w

(* Shared decode shell: version check, request id, tag dispatch,
   trailing-byte and truncation detection, never an exception.  Yields
   the message together with the request id. *)
let decode_payload what ?off ?len payload read_tagged =
  let r = Binio.Reader.of_string ?off ?len payload in
  try
    let v = Binio.Reader.int r in
    if v <> version then Result.Error (Unsupported v)
    else begin
      let id = Binio.Reader.string r in
      let tag = Binio.Reader.int r in
      match read_tagged r tag with
      | Some value ->
          if Binio.Reader.at_end r then Result.Ok (value, id)
          else Result.Error (Malformed (what ^ " has trailing bytes"))
      | None ->
          Result.Error (Malformed (Printf.sprintf "unknown %s tag %d" what tag))
    end
  with Binio.Error msg -> Result.Error (Malformed msg)

let decode_request ?off ?len payload =
  decode_payload "request" ?off ?len payload (fun r -> function
    | 0 -> Some Health
    | 3 ->
        let program = Binio.Reader.string r in
        let allocator = Binio.Reader.string r in
        let scale = Binio.Reader.float r in
        Some (Run_cell { program; allocator; scale })
    | 4 ->
        let id = Binio.Reader.string r in
        let scale = Binio.Reader.float r in
        Some (Run_experiment { id; scale })
    | 5 ->
        let format = Binio.Reader.string r in
        let trace = Binio.Reader.string r in
        Some (Ingest { format; trace })
    | _ -> None)

let encode_response ?(id = "") resp =
  let w = Binio.Writer.create () in
  write_envelope w id;
  (match resp with
  | Health_ok { server_version; protocol_version } ->
      Binio.Writer.int w 0;
      Binio.Writer.string w server_version;
      Binio.Writer.int w protocol_version
  | Cell_ok { digest; artifact } ->
      Binio.Writer.int w 3;
      Binio.Writer.string w digest;
      Binio.Writer.string w artifact
  | Report_ok text ->
      Binio.Writer.int w 4;
      Binio.Writer.string w text
  | Error { code; message } ->
      Binio.Writer.int w 5;
      Binio.Writer.int w (error_code_to_int code);
      Binio.Writer.string w message);
  Binio.Writer.contents w

let decode_response ?off ?len payload =
  decode_payload "response" ?off ?len payload (fun r -> function
    | 0 ->
        let server_version = Binio.Reader.string r in
        let protocol_version = Binio.Reader.int r in
        Some (Health_ok { server_version; protocol_version })
    | 3 ->
        let digest = Binio.Reader.string r in
        let artifact = Binio.Reader.string r in
        Some (Cell_ok { digest; artifact })
    | 4 -> Some (Report_ok (Binio.Reader.string r))
    | 5 -> (
        let code = Binio.Reader.int r in
        let message = Binio.Reader.string r in
        match error_code_of_int code with
        | Some code -> Some (Error { code; message })
        | None -> None)
    | _ -> None)

(* ---- frame I/O ------------------------------------------------------ *)

(* EINTR-safe exact-count socket I/O: a SIGINT aimed at graceful
   shutdown must never tear a frame in half. *)
let rec write_all fd s pos len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (pos + n) (len - n)
  end

let write_frame fd payload =
  let data = Binio.Frame.frame ~magic payload in
  write_all fd data 0 (String.length data)

(* Read exactly [len] bytes; [Ok false] on EOF before the first byte,
   [Error] on EOF mid-buffer. *)
let read_exact fd buf off len =
  let rec go off len =
    if len = 0 then Result.Ok true
    else
      match Unix.read fd buf off len with
      | 0 ->
          if off = 0 then Result.Ok false
          else Result.Error "connection closed mid-frame"
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
  in
  go off len

let header_bytes = String.length magic + 8

type payload = { frame : string; off : int; len : int }

let read_frame ?(first = "") fd =
  let hdr = Bytes.create header_bytes in
  let pre = min (String.length first) header_bytes in
  Bytes.blit_string first 0 hdr 0 pre;
  match
    if pre = header_bytes then Result.Ok true
    else read_exact fd hdr pre (header_bytes - pre)
  with
  | Result.Error _ as e -> e
  | Result.Ok false -> Result.Ok None
  | Result.Ok true ->
      if Bytes.sub_string hdr 0 (String.length magic) <> magic then
        Result.Error "bad frame magic (not a loclab serve stream)"
      else
        let len =
          Int64.to_int (Bytes.get_int64_le hdr (String.length magic))
        in
        if len < 0 || len > max_frame_bytes then
          Result.Error (Printf.sprintf "unreasonable frame length %d" len)
        else
          (* The whole frame lands in one buffer of its exact size, never
             touched again, which the shared envelope check reads in
             place (so the CRC semantics are exactly the store's) and
             the payload decoder reads in place too: the fields it
             decodes are the only other copies. *)
          let frame = Bytes.create (header_bytes + len + 8) in
          Bytes.blit hdr 0 frame 0 header_bytes;
          match read_exact fd frame header_bytes (len + 8) with
          | Result.Error _ as e -> e
          | Result.Ok false -> Result.Error "connection closed mid-frame"
          | Result.Ok true ->
              let frame = Bytes.unsafe_to_string frame in
              Result.map
                (fun (off, len) -> Some { frame; off; len })
                (Binio.Frame.verify ~magic frame)
