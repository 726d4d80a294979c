(** Modern CPU cache-hierarchy presets (2008-2017).

    Each preset bundles an L1/L2/L3 {!Config.t} stack — sizes,
    associativities and replacement policies following the publicly
    documented Intel client parts — with per-level hit latencies and a
    main-memory latency, extending the paper's single-penalty
    execution-time model to a per-level cost model.  Select with
    [loclab --cpu KEY]. *)

type level = { config : Config.t; hit_latency : int  (** load-to-use cycles *) }

type t = {
  key : string;  (** CLI token, e.g. ["skylake"]. *)
  label : string;  (** Human label, e.g. ["Skylake (2015)"]. *)
  year : int;
  levels : level list;  (** outermost (L1) first *)
  mem_latency : int;  (** cycles to serve a last-level miss *)
}

val nehalem : t
val sandybridge : t
val haswell : t
val skylake : t
val coffeelake : t

val all : t list
(** All presets, oldest first. *)

val keys : unit -> string list

val find : string -> t
(** @raise Invalid_argument for an unknown key, listing the known ones. *)

val hierarchy : t list -> Hierarchy.t
(** One fresh simulated hierarchy over the presets' level stacks, one
    path per preset in the order given ({!Hierarchy.results} follows
    it).  Levels the presets share with their whole upstream path are
    simulated once: {!all} needs 7 level simulations, not 15. *)

val miss_penalties : t -> int array
(** Per-level miss costs for {!stall_cycles}: a miss at level [i]
    pays level [i+1]'s hit latency; the last level pays
    [mem_latency]. *)

val stall_cycles : t -> Stats.t list -> int
(** Memory stall cycles of per-level statistics (outermost first, one
    entry per level, e.g. [List.map snd] of the preset's path in
    {!Hierarchy.results}, or a stored copy of them): each level's
    misses pay {!miss_penalties}.
    @raise Invalid_argument when the level count is not the preset's. *)

val total_cycles : t -> Stats.t list -> instructions:int -> int
(** One cycle per instruction plus {!stall_cycles} — the paper's
    execution-time model with per-level penalties. *)

val pp : Format.formatter -> t -> unit
