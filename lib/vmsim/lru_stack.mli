(** Mattson LRU stack-distance simulation.

    One pass over a reference stream yields the LRU stack-distance
    histogram, from which the miss (page-fault) count of {e every} memory
    size is derived — this is the "fast implementation of a stack
    simulation algorithm" (VMSIM) the paper uses.

    The stack distance of an access is the number of distinct keys
    referenced since the previous access to the same key, plus one (its
    LRU-stack position).  An access hits in an LRU memory of [m] slots
    iff its stack distance is at most [m].  First-ever accesses are
    cold.

    The stack has two tiers.  The 32 most recent keys sit in a
    move-to-front array, where a hit is a short scan.  Older keys are
    numbered in the order they left that array, which is recency
    order, in a Fenwick-indexed time index, so a hit there costs one
    prefix query. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** [initial_capacity] (default 1024, at least 2) sizes the time index
    of the older keys.  When the index fills up, compaction renumbers
    it and grows it to four times the number of older keys, so it
    stays sized to the footprint whatever the start. *)

val access : t -> int -> int
(** [access t key] records a reference to [key] and returns its stack
    distance (at least 1), or 0 on a cold (first) access. *)

val accesses : t -> int
(** Total accesses recorded. *)

val cold : t -> int
(** Number of cold accesses (equals the number of distinct keys). *)

val distinct : t -> int

val histogram : t -> int array
(** [histogram t] maps stack distance [d] (1-based; index 0 unused) to
    the number of accesses with that distance.  Indices beyond the
    largest observed distance are absent (array is trimmed). *)

val misses_at : t -> capacity:int -> int
(** Misses of an LRU memory with [capacity] slots: cold accesses plus
    accesses whose stack distance exceeds [capacity].
    [capacity] must be positive. *)

val miss_curve : t -> capacities:int list -> (int * int) list
(** [(capacity, misses)] for each requested capacity. *)
