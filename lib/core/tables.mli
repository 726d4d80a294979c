(** Regeneration of the paper's Tables 2–6. *)

val tab2 : Context.t -> string
(** Test-program performance information (FirstFit baseline). *)

val tab3 : Context.t -> string
(** Characteristics of the three GhostScript input sets. *)

val tab4 : Context.t -> string
(** Total estimated execution time and miss time, 16 K cache. *)

val tab5 : Context.t -> string
(** Same with a 64 K cache. *)

val tab6 : Context.t -> string
(** Effect of boundary tags on GNU local (emulated 8-byte tags),
    64 K cache. *)

val tabcpu : Context.t -> string
(** Extension: the paper's allocator ranking re-run on the modern
    {!Cachesim.Cpu} presets (L1/L2/L3 with tree-PLRU/QLRU policies) —
    one table ranking every allocator across all presets, plus a
    per-level detail table for the preset in {!Context.t.cpu}. *)

val cpu_cell : Context.t -> Runs.derivation
(** {!tabcpu}'s derived cell: one GS-Large driver pass per
    {!Context.with_custom} allocator at {!Context.off_grid_scale}, into
    one {!Cachesim.Hierarchy} over every {!Cachesim.Cpu.all} preset;
    each row's statistics are named [<preset>/L<n>]. *)
