(** In-memory packed trace capture.

    A [Trace_buffer] records a whole reference trace in chunked
    {!Event.Batch} form — ~2 native ints per event, no boxing — so a
    trace can be captured once and replayed through many consumers
    (e.g. the same trace against several cache configurations, or the
    same trace sharded across domains; see [Cachesim.Shard]).

    Chunks returned by {!chunks} alias the buffer's storage: capture
    first, then replay — delivering more events after taking [chunks]
    may leave the returned array stale. *)

type t

val create : ?chunk_capacity:int -> unit -> t
(** A fresh empty buffer.  [chunk_capacity] (default 65536 events)
    bounds the granularity of internal storage and of {!replay}
    deliveries: the first chunk holds up to 4096 events and each next
    one doubles, up to [chunk_capacity], so a short capture allocates in
    proportion to its length.
    @raise Invalid_argument if [chunk_capacity < 1]. *)

val default_chunk_capacity : int

val length : t -> int
(** Events captured so far. *)

val sink : t -> Sink.t
(** A sink that appends everything it receives, by blitting. *)

val chunks : t -> Event.Batch.t array
(** The captured trace as packed chunks, in emission order.  Read-only;
    aliases internal storage. *)

val events : t -> Event.t list
(** The captured trace decoded to boxed events (tests/small traces). *)

val replay : t -> Sink.t -> unit
(** Delivers the whole trace to [sink] as packed batches, in order. *)

val iter_chunks : (Event.Batch.t -> unit) -> t -> unit
