(** A multi-level cache hierarchy.

    Generalises the "hypothetical two-level cache" of Mogul & Borg
    cited in the paper to N levels: every reference probes the first
    level; each level sees only the miss stream of the level above.
    Levels may use any replacement {!Policy.t}; LRU levels run on the
    shared one-pass {!Forest} member path, others on plain {!Cache}
    simulation.  Used by the extension benchmarks and by the modern
    {!Cpu} presets (L1/L2/L3 with pseudo-LRU policies). *)

type t

val create_levels : Config.t list -> t
(** [create_levels [l1; l2; ...]] builds a hierarchy, outermost (closest
    to the processor) first.
    @raise Invalid_argument on an empty list. *)

val sink : t -> Memsim.Sink.t

val level_stats : t -> int -> Stats.t
(** Statistics of level [i]; level [i]'s accesses are level [i-1]'s
    misses. *)

val results : t -> (Config.t * Stats.t) list
(** All levels, outermost first.  Their stall cycles under a per-level
    latency model are {!Cpu.stall_cycles} of the statistics. *)
