(** One-pass simulation of a *family* of caches sharing one block size
    — Hill & Smith's forest simulation, the way the paper's TYCHO
    evaluates its whole 16K–256K size sweep in a single walk over the
    trace.  It is the only cache engine: a single cache, such as a
    {!Hierarchy} level, is a one-member family.

    Direct-mapped members are ordered by the inclusion property of
    same-stream direct-mapped caches with power-of-two set counts:
    residence in a smaller member implies residence in every larger
    member, so one smallest-to-largest probe that stops at the first
    hit classifies the reference for the whole chain.  Set-associative
    members do not order by inclusion (equal capacity at different set
    counts is the classic counterexample) and are probed individually,
    each replacing by its config's {!Policy.t} — but they share the
    family's access profile and cold-miss table, which are identical
    for every member seeing the same stream.

    Caches are write-allocate: read and write misses both bring the
    block in.  Invalid ways fill leftmost-first; only a full set
    consults the policy for a victim.  A dirty block evicted (or
    flushed) counts a writeback.

    A set-associative member's tag storage is proportional to its
    fullest set, not its capacity: it stores as many ways per set as
    the fullest set has needed (a power of two up to the
    associativity), growing when a miss finds its set's stored ways
    all valid.

    Per-member statistics are bit-identical to simulating each member
    on its own (pinned against the naive oracle [test/oracle.ml] by
    property tests in [test/test_cachesim.ml]). *)

type t

val create : ?shard:int * int -> Config.t list -> t
(** [create configs] builds the family, every set-associative member
    storing one way per set until a set needs more.

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

val access_block_ks : t -> ks:int -> block:int -> int
(** [access_block_ks t ~ks ~block] touches one block (global block
    index, i.e. [addr / block_bytes]) in every member, with the
    kind/source fused into the {!Memsim.Event.Packed.ks} counter index,
    and returns how many members missed (0 = hit everywhere); the hot
    entry for {!Hierarchy}. *)

val access_range_ks : t -> ks:int -> addr:int -> size:int -> unit
(** Touches every block the byte range spans, with the kind/source
    already fused. *)

val sink : t -> Memsim.Sink.t
(** The family as a trace consumer: every event touches each block its
    byte range spans (addresses must be non-negative), without
    materialising [Event.t] records.  It is [sink_families [| t |]]. *)

val sink_families : t array -> Memsim.Sink.t
(** [sink_families fs] feeds every family of [fs] from one walk per
    batch, with statistics identical to each family's own {!sink}.  An
    event that lies inside the block the smallest family touched last
    is a repeat in every family (each larger block contains it), so it
    costs each family an access count and no range walk.  The families
    must see only this sink's events, and be flushed all together or
    not at all.

    @raise Invalid_argument if [fs] is empty, its block sizes do not
    strictly ascend, or it holds several families one of which is a
    shard. *)

val flush : t -> unit
(** Writes back every dirty block and invalidates every member, and
    forgets the replacement state; statistics and the cold-miss table
    are kept, and so is the tag storage grown so far.  Models a
    context-switch cache flush. *)

val reset : t -> unit
(** Returns the family to its just-created state: every member empty
    with its replacement state forgotten, every statistic zeroed and
    the cold-miss table emptied.  Nothing is written back.  The tag
    storage grown so far, and the cold-miss table's room, are kept for
    the next trace.  A reset instance fed a trace reports exactly what
    a fresh one would, so one family (and its storage) can serve
    several independent traces. *)

val absorb : t -> t -> unit
(** [absorb t other] adds [other]'s counters (accesses, misses, cold
    misses, writebacks) into [t] — the merge step of sharded
    simulation.  Cache contents are untouched.

    @raise Invalid_argument if the two instances' members differ. *)

val member_stats : t -> int -> Stats.t
(** Statistics of the [i]th member, in creation order, materialised
    fresh on each call (a snapshot, not a live accumulator). *)

val results : t -> (Config.t * Stats.t) list
(** Configuration and statistics per member, in creation order. *)
