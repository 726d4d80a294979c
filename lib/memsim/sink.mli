(** Trace consumers.

    A sink receives every reference event of a simulation run, one
    packed {!Event.Batch} at a time.  Sinks are composable: [fanout]
    broadcasts one trace to several consumers (e.g. a family of cache
    simulators plus the page-fault simulator plus raw counters), exactly
    as the paper drives TYCHO and VMSIM from one execution-driven trace.

    A delivery must be observationally identical to delivering its
    events one by one in order; batches exist to amortise per-event
    closure dispatch.  [fanout] hands the whole batch to each consumer
    in turn, so consumers must not rely on being interleaved
    event-by-event with their siblings — none of the simulators do, as
    each owns disjoint state.  A batch is shared read-only among fanout
    siblings, owned by the producer and only valid for the duration of
    the call: consumers must fully consume (or copy) it before
    returning, as the producer may reuse it the moment the call
    returns.

    A consumer may also run on another domain, behind [Exec.Relay]:
    the relay's sink copies each batch into its own ring before it
    returns, so ownership is unchanged for the producer, and the
    relayed consumer receives the ring's slots — batches of different
    boundaries — in stream order, which the delivery rule above makes
    indistinguishable.  A relayed consumer runs concurrently with its
    former fanout siblings, so it must share no mutable state with
    them. *)

type t = Event.Batch.t -> unit

val null : t
(** Discards every event. *)

val fanout : t list -> t
(** [fanout sinks] forwards each batch to every sink, in order (see the
    module comment). *)

(** Running totals of a trace: how many references, reads, writes, bytes,
    broken down by source.  This supplies the [D] term of the paper's
    execution-time model. *)
module Counter : sig
  type counter

  val create : unit -> counter

  val sink : counter -> t
  (** Tallies straight from the meta words — no [Event.t] is
      materialised. *)

  val total : counter -> int
  (** Number of reference events observed. *)

  val reads : counter -> int
  val writes : counter -> int
  val bytes : counter -> int

  val by_source : counter -> Event.source -> int
  (** Events attributed to the given source. *)

  val reset : counter -> unit
end

(** Order-sensitive checksum of a reference trace (FNV-1a over every
    event's kind, source, address and size).  Two runs produce the same
    value iff they emitted the same events in the same order, so run
    artifacts persist it to detect simulation drift: a stored cell whose
    inputs (program, allocator, scale, seed) match but whose trace
    checksum differs from a fresh run exposes a behavioural change that
    the memoization would otherwise hide.  Per event it mixes the
    address, then the {!Event.Packed.meta} word. *)
module Checksum : sig
  type checksum

  val create : unit -> checksum
  val sink : checksum -> t

  val value : checksum -> int
  (** Checksum of everything observed so far, in [0, max_int]. *)
end
