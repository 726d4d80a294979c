(** The simulated machine an allocator runs on.

    Bundles the traced word memory, an sbrk-extendable heap region, a
    static-data region (for freelist heads, size-class tables, chunk
    headers — the allocator's globals) and the instruction-cost
    accounting.  Every [load]/[store] emits a trace event {e and} charges
    one instruction to the active phase, so allocator metadata traffic
    is visible to the cache/page simulators exactly as in the paper. *)

type t

val create : ?sink:Memsim.Sink.t -> unit -> t
(** A 64 MB sbrk region and, below it, a 4 MB region for allocator
    static data and the program's globals (like a data segment below
    the heap). *)

val mem : t -> Memsim.Sim_memory.t
val cost : t -> Cost.t
val heap_region : t -> Memsim.Region.t
val static_region : t -> Memsim.Region.t
val set_sink : t -> Memsim.Sink.t -> unit

val flush_trace : t -> unit
(** Flushes the memory's internal packed event buffer to the sink; call
    before observing sink-side state (see {!Memsim.Sim_memory.flush}). *)

(** {1 Phased execution} *)

val with_phase : t -> Cost.phase -> (unit -> 'a) -> 'a
(** Runs with both the cost phase and the trace source set, restoring
    them afterwards. *)

(** {1 Memory operations (traced and costed)} *)

val load : t -> Memsim.Addr.t -> int
(** One traced word read; charges 1 instruction. *)

val store : t -> Memsim.Addr.t -> int -> unit
(** One traced word write; charges 1 instruction. *)

val charge : t -> int -> unit
(** Register-only work: charges instructions without memory traffic. *)

val sbrk : t -> int -> Memsim.Addr.t
(** Extends the heap break, returning the base of the new storage
    (word-aligned).  Charges a fixed system-call overhead
    ({!sbrk_instructions}) but emits no data references, matching how
    trace tools treat kernel work. *)

val sbrk_instructions : int

val alloc_static : t -> int -> Memsim.Addr.t
(** Carves allocator static data (silently — static layout happens at
    program load time, not during execution). *)

val heap_used : t -> int
(** Bytes obtained from sbrk so far — the paper's "memory requested by
    the program". *)

(** {1 Silent accessors (bookkeeping and tests)} *)

val peek : t -> Memsim.Addr.t -> int
val poke : t -> Memsim.Addr.t -> int -> unit
