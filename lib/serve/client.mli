(** A blocking client for the {!Protocol} service: one connection, one
    outstanding request at a time (the server supports pipelining; this
    client simply doesn't need it).  [loclab client], [loclab top], the
    bench traffic replay and the integration tests all speak through
    here. *)

type t

type error =
  | Timeout of float
      (** No reply within the receive timeout (seconds; 0 when it
          could not be read back from the socket). *)
  | Closed  (** The server closed the connection before replying. *)
  | Transport of string  (** I/O failure or an undecodable reply. *)

val error_to_string : error -> string

val connect : ?timeout:float -> Protocol.addr -> t
(** [timeout] (seconds, via [SO_RCVTIMEO]) bounds every receive on the
    connection: a wedged server yields [Error (Timeout _)] instead of
    hanging forever.  Also ignores [SIGPIPE] process-wide, for the same
    reason the server does.
    @raise Unix.Unix_error when the connection fails. *)

val close : t -> unit

val request :
  ?id:string -> t -> Protocol.request -> (Protocol.response, error) result
(** One round trip under request id [id] (default [""]: the server
    mints one).  [Error] covers transport failures, timeouts and
    undecodable replies; a server-side failure arrives as
    [Ok (Error _)] — the typed error response — not as [Error].  Never
    raises. *)

val with_connection : ?timeout:float -> Protocol.addr -> (t -> 'a) -> 'a
(** [with_connection addr f] connects, runs [f], and always closes. *)

val http_get :
  ?timeout:float -> Protocol.addr -> string -> (string, error) result
(** One [GET path] against the server's plain-HTTP side ([/metrics],
    [/status], [/health]), returning the response body of a 200 and
    [Error (Transport _)] with the status for anything else.  Opens its
    own short-lived connection.  Never raises on I/O failure. *)
