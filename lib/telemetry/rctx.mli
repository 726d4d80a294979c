(** Request-scoped tracing: one context per served request, carrying a
    hex request id, an ordered list of timed stages
    ([read_frame → decode → store_lookup → simulate |
    single_flight_wait → encode → write_reply]), and the accounting
    fields the access log and the slow-request table render.

    {b Ownership.}  A context belongs to exactly one request's
    execution path: the connection thread that reads, executes and
    answers the request, and a single-flight leader's pool worker,
    reached through a future (happens-before), so fields need no locks
    of their own.  Only {!finish} touches shared state — the
    {!Slow} ring and, when span tracing is on, the {!Span} ring.

    {b Cost.}  Disabled (the default), {!stage} runs its thunk
    directly and {!finish} records nothing; like the rest of the
    telemetry stack, tracing only observes — it cannot perturb
    simulation results. *)

type stage = {
  sname : string;
  sstart_us : float;  (** {!Span.now_us} at stage start. *)
  sdur_us : float;
}

type finished = {
  id : string;  (** Lowercase hex request id. *)
  kind : string;  (** Request kind (the metrics label). *)
  peer : string;
  cell : string;  (** Cell digest / experiment id / trace ident; [""] if none. *)
  outcome : string;  (** ["ok"] or an error-code name. *)
  warm : bool option;  (** Store hit? [None] when not a store-backed kind. *)
  bytes_in : int;
  bytes_out : int;
  wall_start : float;  (** [Unix.gettimeofday] at creation (seconds). *)
  total_us : float;
  stages : stage list;  (** Execution order. *)
}

type t

val set_enabled : bool -> unit
val enabled : unit -> bool

val fresh_id : unit -> string
(** A random 64-bit id, rendered as 16 lowercase hex digits. *)

val valid_id : string -> bool
(** Accepted client-supplied ids: 1–32 hex digits. *)

val create : ?id:string -> kind:string -> peer:string -> unit -> t
(** Start a context.  A valid client-supplied [id] is adopted
    (lowercased); an empty, invalid or absent one is replaced by
    {!fresh_id}. *)

val id : t -> string

val set_cell : t -> string -> unit
val set_outcome : t -> string -> unit
val set_warm : t -> bool -> unit
val add_bytes_in : t -> int -> unit
val add_bytes_out : t -> int -> unit

val stage : t -> string -> (unit -> 'a) -> 'a
(** [stage t name f] times [f] and appends the stage (also when [f]
    raises; the exception is re-raised).  Disabled: runs [f] directly. *)

val record_stage : t -> string -> start_us:float -> dur_us:float -> unit
(** Append a stage measured elsewhere (the server times [read_frame]
    and [decode] before the request id is known). *)

val finish : t -> finished
(** Seal the context: computes the total, submits it to the {!Slow}
    ring, and — when {!Span} tracing is also enabled — mirrors the
    request as a root span plus one child span per stage, all tagged
    with the request id. *)

(** Bounded table of the 8 slowest requests per 60 s window.  The
    current window fills and on rotation becomes the previous one, so
    a snapshot covers one to two windows — a burst stays visible for
    at least a window after it ends, a quiet server doesn't pin stale
    entries forever. *)
module Slow : sig
  val note : finished -> unit
  (** Called by {!finish}; exposed for tests. *)

  val snapshot : unit -> finished list
  (** Slowest first, at most 8 entries, merged across the
      current and previous windows. *)

  val reset : unit -> unit
end

val to_json : finished -> Metrics.Export.json
(** The access-log object: [ts] (ISO 8601, µs precision), [request_id],
    [peer], [kind], [cell] (or null), [outcome], [total_us], [stages]
    (object: name → µs), [warm] (bool or null), [bytes_in],
    [bytes_out]. *)

val iso8601 : float -> string
(** Render seconds-since-epoch as [YYYY-MM-DDThh:mm:ss.uuuuuuZ]. *)
