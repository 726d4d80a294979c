(** One-pass simulation of a *family* of caches sharing one block size
    — Hill & Smith's forest simulation, the way the paper's TYCHO
    evaluates its whole 16K–256K size sweep in a single walk over the
    trace.

    Direct-mapped members are ordered by the inclusion property of
    same-stream direct-mapped caches with power-of-two set counts:
    residence in a smaller member implies residence in every larger
    member, so one smallest-to-largest probe that stops at the first
    hit classifies the reference for the whole chain.  Set-associative
    members do not order by inclusion (equal capacity at different set
    counts is the classic counterexample) and are probed individually,
    with per-way last-use stamps standing in for an LRU list — but they
    share the family's access profile and cold-miss table, which are
    identical for every member seeing the same stream.

    Per-member statistics are bit-identical to simulating each member
    independently with {!Cache} (verified by a property test in
    [test/test_cachesim.ml]). *)

type t

val create : ?shard:int * int -> Config.t list -> t
(** [create configs] builds the family.

    [?shard:(i, n)] builds shard [i] of [n]: the instance owns only the
    blocks whose set index (in the family's smallest member) falls in
    its contiguous [1/n] range, and silently ignores every other
    reference.  Because all members' set counts are powers of two, a
    whole set of {e every} member belongs to exactly one shard, so [n]
    shards each scanning the full trace and then merged with {!absorb}
    produce statistics identical to one unsharded instance ([Shard]
    drives this across domains; identity is pinned by test).

    @raise Invalid_argument if the list is empty, the members disagree
    on block size, or the shard pair is out of range. *)

val block_bytes : t -> int
(** The family's shared block size. *)

val size : t -> int
(** Number of members. *)

val access_block : t -> kind:Memsim.Event.kind ->
  source:Memsim.Event.source -> block:int -> int
(** [access_block t ~kind ~source ~block] touches one block (global
    block index, i.e. [addr / block_bytes]) in every member and returns
    how many members missed (0 = hit everywhere). *)

val access_block_ks : t -> ks:int -> block:int -> int
(** {!access_block} with the kind/source already fused into the
    {!Memsim.Event.Packed.ks} counter index; the hot entry for
    {!Hierarchy}. *)

val access_range_ks : t -> ks:int -> addr:int -> size:int -> unit
(** Touches every block the byte range spans, with the kind/source
    already fused; the hot entry for {!Multi}'s batch loop. *)

val sink : t -> Memsim.Sink.t
(** The family as a trace consumer: every event touches each block its
    byte range spans (addresses must be non-negative), without
    materialising [Event.t] records. *)

val absorb : t -> t -> unit
(** [absorb t other] adds [other]'s counters (accesses, misses, cold
    misses, writebacks) into [t] — the merge step of sharded
    simulation.  Cache contents are untouched.

    @raise Invalid_argument if the two instances' members differ. *)

val member_config : t -> int -> Config.t
(** Configuration of the [i]th member, in creation order. *)

val member_stats : t -> int -> Stats.t
(** Statistics of the [i]th member, materialised fresh on each call
    (a snapshot, not a live accumulator). *)

val results : t -> (Config.t * Stats.t) list
(** Configuration and statistics per member, in creation order. *)

val miss_rate_series : t -> (string * float) list
(** [(name, miss-rate %)] per member — one figure series. *)
