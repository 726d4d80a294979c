(** Regeneration of the paper's figures (as data series / text charts).

    Each function renders the same quantity the figure plots; paper
    values are never matched absolutely (different substrate), but the
    orderings and shapes are the reproduction target recorded in
    EXPERIMENTS.md. *)

val fig1 : Context.t -> string
(** Percent of time in malloc and free, per program x allocator. *)

val fig2 : Context.t -> string
(** Page fault rate vs. physical memory, GhostScript (GS-Large). *)

val fig2_memory_sizes : int list
(** {!fig2}'s x-axis: the physical memory sizes, in bytes. *)

val fig3 : Context.t -> string
(** Page fault rate vs. physical memory, PTC. *)

val fig4 : Context.t -> string
(** Normalized execution time, 16 K direct-mapped, 25-cycle penalty
    (CPU-only bar overlaid with the memory-hierarchy bar). *)

val fig5 : Context.t -> string
(** Same as {!fig4} with a 64 K cache. *)

val fig6 : Context.t -> string
(** Data-cache miss rate vs. cache size, GS-Small. *)

val fig7 : Context.t -> string
(** GS-Medium. *)

val fig8 : Context.t -> string
(** GS-Large. *)

val fig9 : Context.t -> string
(** The size-mapping array (Figure 9 is a design illustration; we print
    a concrete mapping designed from Espresso's measured histogram). *)
