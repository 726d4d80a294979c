(** The loclab simulation service: an accept loop answering
    {!Protocol} requests over AF_UNIX or TCP.

    One thread per connection reads a frame, decodes it, executes it
    and writes the reply before it reads the next, so pipelined
    requests are answered in order and the kernel socket buffers are
    the backpressure: a client pipelining faster than the server
    answers blocks once they fill.  Simulation work is parked on a
    shared {!Exec.Pool} via [async]/[await], so CPU runs on worker
    domains while connection threads multiplex I/O; identical
    concurrent cold requests are collapsed to one simulation by a
    single-flight table keyed by the cell digest.  A connection whose
    read fails (a peer reset) ends quietly.

    Cell requests are answered from the persistent store when warm (the
    reply carries the store's verified payload bytes themselves) and
    simulated — with store write-through — when cold; warm and cold
    replies for the same cell are byte-identical, because the store
    persists exactly [Core.Artifact.encode].

    {b Request-scoped tracing.}  Every request is tracked by a
    {!Telemetry.Rctx}: the connection thread stamps [read_frame]/[decode] and
    adopts the client's request id (or mints one), the execution path
    stamps [parse]/[store_lookup]/[simulate]/[single_flight_wait], and
    the reply path stamps [encode]/[write_reply].  Completed requests
    feed the per-stage latency histograms
    ([loclab_serve_stage_duration_us]), the slow-request table, the
    span ring, and — when configured — a JSON-lines access log.

    The same port also answers plain [GET /metrics] (Prometheus text),
    [GET /health], and [GET /status] (a JSON introspection document:
    versions, RED counters, latency and per-stage quantiles,
    open connections, the single-flight table, the slowest
    requests), so a scraper, [loclab top] or a shell needs no custom
    client: the first bytes of each connection decide HTTP versus the
    binary protocol.  Non-GET HTTP methods get a [405], unknown paths a
    [404]. *)

type t

val create :
  ?jobs:int ->
  ?store:Store.t ->
  ?access_log:string ->
  listen:Protocol.addr ->
  unit ->
  t
(** Bind and listen (the socket accepts from the moment [create]
    returns; {!run} starts answering).  [jobs] (default 1) sizes the
    worker-domain pool.  [access_log] names the JSON-lines access-log
    destination ([-] = stdout; absent = no log); every request is
    written.  A stale AF_UNIX socket file (nothing answering on it) is
    replaced; a live one is an error.  Enables the default metrics
    registry and request tracing, and ignores [SIGPIPE]
    (process-wide).
    @raise Unix.Unix_error when binding fails,
    @raise Failure when the unix socket is already being served. *)

val listen_addr : t -> Protocol.addr
(** The bound address — for [Tcp] with port 0, the real port. *)

val run : t -> unit
(** Accept and answer until {!shutdown}, then drain: open connections
    stop reading, a request already being executed completes and its
    reply is written (a request read after the stop is answered
    [Overloaded]), worker domains and connection threads are joined, the
    listen socket is closed, an AF_UNIX socket file unlinked and the
    access log closed (flushed, for stdout).  Blocks until the drain
    completes. *)

val shutdown : t -> unit
(** Ask {!run} to stop.  Idempotent, lock-free and async-signal-safe —
    wire it directly to SIGINT; a second Ctrl-C during the drain is
    harmless. *)

val status_json : t -> string
(** The [/status] introspection document (one compact JSON object) —
    exposed for the CLI and tests; the HTTP route serves exactly
    this. *)
