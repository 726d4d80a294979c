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

val create : l1:Config.t -> l2:Config.t -> t
(** Two-level convenience wrapper, equivalent to
    [create_levels [l1; l2]]. *)

val sink : t -> Memsim.Sink.t

val num_levels : t -> int

val level_config : t -> int -> Config.t
(** Configuration of level [i] (0 = closest to the processor). *)

val level_stats : t -> int -> Stats.t
(** Statistics of level [i]; level [i]'s accesses are level [i-1]'s
    misses. *)

val results : t -> (Config.t * Stats.t) list
(** All levels, outermost first. *)

val l1_stats : t -> Stats.t
(** [level_stats t 0]. *)

val l2_stats : t -> Stats.t
(** [level_stats t 1]. *)

val stalls : t -> penalties:int array -> int
(** [stalls t ~penalties] is the total memory stall cycles under a
    per-level miss-cost model: a miss at level [i] pays [penalties.(i)]
    — the access latency of the next level down, with the last entry
    the main-memory latency.  [penalties] must have one entry per
    level.  See {!Cpu.stall_cycles} for the preset-driven wrapper. *)

val stall_cycles : t -> l1_penalty:int -> l2_penalty:int -> int
(** Two-level form kept for the paper-era experiments: L1 misses pay
    [l1_penalty] (the L2 access time) and L2 misses additionally pay
    [l2_penalty].
    @raise Invalid_argument if the hierarchy has fewer than two
    levels. *)
