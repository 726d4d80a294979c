(** Cache access statistics. *)

type t = {
  mutable accesses : int;
  mutable misses : int;
  mutable read_accesses : int;
  mutable read_misses : int;
  mutable write_accesses : int;
  mutable write_misses : int;
  mutable cold_misses : int;  (** First reference ever to the block. *)
  mutable writebacks : int;
      (** Dirty blocks written back to memory on eviction or flush
          (write-back policy accounting; miss counts are unaffected). *)
  mutable app_accesses : int;
  mutable app_misses : int;
  mutable malloc_accesses : int;
  mutable malloc_misses : int;
  mutable free_accesses : int;
  mutable free_misses : int;
}

val create : unit -> t

val hits : t -> int

val rate : misses:int -> accesses:int -> float
(** [misses / accesses]; 0 when there were no accesses. *)

val miss_rate : t -> float
(** Misses per access, in [0, 1]; 0 when there were no accesses. *)

val miss_rate_pct : t -> float
(** Miss rate as a percentage, matching the paper's figures. *)

val source_miss_rate : t -> Memsim.Event.source -> float
(** Miss rate restricted to references from one source. *)

val record : t -> kind:Memsim.Event.kind -> source:Memsim.Event.source ->
  miss:bool -> cold:bool -> unit
(** Accumulates one block access. *)

val record_writeback : t -> unit

val memory_traffic_blocks : t -> int
(** Block transfers to/from memory under write-back: fetches (misses)
    plus writebacks. *)

val merge : t -> t -> t
(** Pointwise sum (fresh statistics record). *)

val pp : Format.formatter -> t -> unit
