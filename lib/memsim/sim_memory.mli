(** The simulated data memory.

    [Sim_memory] plays the role PIXIE-instrumented hardware plays in the
    paper: every load and store goes through it, is recorded as a trace
    event, and (for word accesses) actually reads or writes a backing
    store so allocator metadata — freelist links, boundary tags, chunk
    headers — behaves like real memory.  The backing store is paged:
    fixed-size word pages are allocated on their first store, so its
    footprint follows the pages actually stored to, not the highest
    address.

    Accesses carry the current {e source} ([App], [Malloc] or [Free]);
    allocators set the source on entry to [malloc]/[free] so their
    metadata traffic is attributed correctly.

    Events are packed at the source into an internal {!Event.Batch} and
    delivered downstream as one sink call per 256 events — no
    [Event.t] record is allocated on the hot path.  Consequently sink
    state lags the simulation by up to one batch: call {!flush} before
    observing counters, checksums or cache statistics fed by this
    memory's sink.  ({!Workload.Driver} flushes for you.) *)

type t

val create : ?sink:Sink.t -> unit -> t
(** A fresh memory whose trace is sent to [sink] (default {!Sink.null}).
    The sink can be replaced later with {!set_sink}. *)

val set_sink : t -> Sink.t -> unit
(** Replaces the sink, first flushing buffered events to the old one. *)

val flush : t -> unit
(** Delivers any internally buffered events to the sink now. *)

val source : t -> Event.source
val set_source : t -> Event.source -> unit
(** Sets the attribution for subsequent accesses. *)

val with_source : t -> Event.source -> (unit -> 'a) -> 'a
(** [with_source t src f] runs [f] with the source set to [src],
    restoring the previous source afterwards (even on exceptions). *)

(** {1 Word accesses (allocator metadata)} *)

val load : t -> Addr.t -> int
(** [load t a] reads the word at word-aligned address [a], emitting a
    4-byte read event.  Uninitialised words read as 0. *)

val store : t -> Addr.t -> int -> unit
(** [store t a v] writes [v] to the word at word-aligned address [a],
    emitting a 4-byte write event. *)

(** {1 Ranged accesses (application payloads)}

    Payload contents are not modelled — only the reference stream — so
    these emit events without touching the backing store.  A ranged
    access is emitted as one event per word-sized piece, mirroring the
    word-grain traces PIXIE produces. *)

val read_bytes : t -> Addr.t -> int -> unit
(** [read_bytes t a n] emits read events covering [\[a, a+n)]. *)

val write_bytes : t -> Addr.t -> int -> unit
(** [write_bytes t a n] emits write events covering [\[a, a+n)]. *)

val access_bytes : t -> write:bool -> Addr.t -> int -> unit
(** {!write_bytes} when [write], else {!read_bytes}, chosen without a
    branch: a random read/write mix would mispredict one. *)

(** {1 Silent inspection (tests only)} *)

val peek : t -> Addr.t -> int
(** Like {!load} but emits no event. *)

val poke : t -> Addr.t -> int -> unit
(** Like {!store} but emits no event. *)
