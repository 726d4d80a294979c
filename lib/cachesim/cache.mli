(** A single simulated data cache.

    Write-allocate: both read and write misses bring the block into the
    cache.  Set-associative caches replace within each set according to
    the config's {!Policy.t} (true LRU by default); invalid ways fill
    leftmost-first and the policy is only consulted once the set is
    full.  Dirty blocks are tracked so write-backs can be counted on
    eviction: each way is one word, the block index with the dirty bit
    folded in. *)

type t

val create : Config.t -> t
val config : t -> Config.t
val stats : t -> Stats.t

val access_block : t -> kind:Memsim.Event.kind ->
  source:Memsim.Event.source -> block:int -> bool
(** [access_block t ~kind ~source ~block] touches one block (global block
    index, i.e. [addr / block_bytes]) and returns [true] on a miss. *)

val access_packed : t -> addr:int -> meta:int -> unit
(** One reference in packed form ({!Memsim.Event.Packed}); no [Event.t]
    is materialised. *)

val sink : t -> Memsim.Sink.t
(** The cache as a trace consumer: feeds each batch through
    {!access_packed}. *)

val contains_block : t -> block:int -> bool
(** Whether the block is currently resident (no side effects). *)

val flush : t -> unit
(** Invalidates all blocks; statistics and cold-start tracking are kept.
    Used to model context-switch cache flushes. *)
