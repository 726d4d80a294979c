(** Ablation and extension experiments for the design decisions the
    paper calls out in §4.3/§4.4. *)

val coalescing : Context.t -> string
(** FirstFit with vs. without coalescing (GS-Large and PTC): space,
    speed and locality cost of "efforts to reduce total memory
    utilization". *)

val size_classes : Context.t -> string
(** Size-class policy ablation on GS-Large: BSD's powers of two vs.
    QuickFit's exact small sizes vs. GNU local vs. the synthesized
    measured classes — fragmentation, footprint, miss rate, total
    time. *)

val associativity : Context.t -> string
(** 16 K cache at 1/2/4/8 ways per allocator (GS-Large): how much of
    each allocator's miss rate is conflict misses. *)

val sweep_configs : Cachesim.Config.t list
(** The six extension caches {!associativity} and {!block_size} read
    beside the grid cell's [16K-dm] and [64K-dm]: 16 K at 2, 4 and 8
    ways, and 64 K with 16-, 64- and 128-byte blocks ([64K-b16],
    [64K-b64], [64K-b128]). *)

val sweep_rows : Context.t -> Derived.row list
(** The [abl-sweep] derived cell {!associativity} and {!block_size}
    share: one GS-Large driver pass per {!Context.with_custom}
    allocator, at the grid's scale, into one {!Cachesim.Multi} of
    {!sweep_configs}; each row's statistics are named by config. *)

val two_level : Context.t -> string
(** 16 K L1 + 256 K L2 with a 100-cycle L2 penalty (the Jouppi /
    Mogul-Borg future-machine scenario of §1.1): does GNU local's
    locality engineering pay off at high penalties? *)

val block_size : Context.t -> string
(** Cache block-size sweep at 64 K on GS-Large: multi-word lines are the
    "hardware prefetching" the paper considers (§4.2, citing Smith);
    larger blocks amplify both useful prefetch and boundary-tag/metadata
    pollution. *)

val seq_family : Context.t -> string
(** FirstFit vs BestFit vs GNU G++ on GS-Large: search length, search
    traffic and locality across the sequential-fit family the paper's
    conclusion covers ("first-fit, best-fit, etc"). *)

val flush : Context.t -> string
(** Miss rates under periodic cache flushes (the context-switch effect
    of Mogul & Borg the paper deliberately excludes from its own
    numbers, here as an extension). *)

val flush_rows : Context.t -> Derived.row list
(** {!flush}'s simulated rows, one per allocator: one GS-Large driver
    pass (scale capped at 0.1) fanned out to a 64 K direct-mapped cache
    per flush quantum, flushed before every quantum-th event (never for
    0).  The statistics are named [flush-Q] for quanta 0, 100000 and
    20000. *)

val lifetime_prediction : Context.t -> string
(** The paper's §5.1 future work, realised: train a per-site lifetime
    predictor on a profiling run (Barrett & Zorn), then compare the
    {!Allocators.Predictive} allocator against QuickFit/Custom/GNU local
    on churn-heavy programs.  Only the predictive and custom rows and
    their training passes are a derived cell; the rest are grid cells. *)

val lifetime_cells : (string * string) list
(** The grid cells {!lifetime_prediction} reads. *)

val penalty_sweep : Context.t -> string
(** Total-time crossover between QuickFit and GNU local as the miss
    penalty grows (§4.4: "if cache miss penalties increase dramatically,
    the added CPU overhead ...may then be warranted"). *)
