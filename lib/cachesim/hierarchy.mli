(** Multi-level cache hierarchies, simulated as a trie of shared levels.

    Generalises the "hypothetical two-level cache" of Mogul & Borg
    cited in the paper to N levels: every reference probes the first
    level; each level sees only the miss stream of the level above.

    One hierarchy holds any number of paths (level stacks).  Two paths
    share a level when its config and its whole upstream path are
    equal: the level then sees an identical miss stream, so it is
    simulated once and reported on both paths.  The five {!Cpu} presets
    are one trie of 7 distinct levels (1 L1, 2 L2s, 4 L3s) instead of
    15; a single path is the plain N-level hierarchy.

    Levels may use any replacement {!Policy.t}; each is a one-member
    {!Forest}. *)

type t

val create : Config.t list list -> t
(** [create paths] builds one hierarchy over every path, each listed
    outermost (closest to the processor) first.  Equal paths, and equal
    prefixes of paths, share their levels.
    @raise Invalid_argument on an empty path list, an empty path, or a
    level whose block is smaller than its upstream level's (naming both
    configs). *)

val create_levels : Config.t list -> t
(** [create_levels levels] is [create [levels]]: one path. *)

val distinct_levels : t -> int
(** The number of simulated levels: the trie's node count. *)

val sink : t -> Memsim.Sink.t

val reset : t -> unit
(** {!Forest.reset} on every level: the hierarchy then reports what a
    freshly created one would, whatever it was fed before. *)

val results : t -> (Config.t * Stats.t) list list
(** Per path, in creation order: every level outermost first, with its
    statistics; level [i]'s accesses are level [i-1]'s misses.  Their
    stall cycles under a per-level latency model are
    {!Cpu.stall_cycles} of the statistics. *)
