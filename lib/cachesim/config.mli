(** Cache configurations.

    The paper simulates direct-mapped caches with 32-byte blocks and total
    sizes from 16 KB to 256 KB; we additionally support set-associative
    caches for the associativity discussion in §2.2, with a pluggable
    replacement {!Policy.t} for the modern-hierarchy experiments. *)

type t = {
  name : string;  (** Display label, e.g. ["16K-dm"]. *)
  size_bytes : int;  (** Total capacity; power of two. *)
  block_bytes : int;  (** Block (line) size; power of two. *)
  associativity : int;  (** 1 = direct-mapped. *)
  policy : Policy.t;  (** Replacement policy; {!Policy.Lru} by default. *)
}

val make :
  ?name:string ->
  ?block_bytes:int ->
  ?associativity:int ->
  ?policy:Policy.t ->
  int ->
  t
(** [make size_bytes] builds a configuration with the paper's defaults:
    32-byte blocks, direct-mapped, LRU replacement.  A name is derived
    when not given (e.g. ["64K-dm"], ["16K-2way"]); non-LRU policies
    are appended to derived names (["16K-8way-plru"]) so paper-era
    labels stay stable.

    @raise Invalid_argument — naming the offending value — if sizes or
    associativity are not powers of two, the block does not divide the
    capacity, associativity does not divide the number of blocks, or a
    {!Policy.Plru} config has more than 64 ways. *)

val num_sets : t -> int
(** Number of sets: [size_bytes / (block_bytes * associativity)]. *)

val num_blocks : t -> int
(** Total number of blocks: [size_bytes / block_bytes]. *)

val paper_direct_mapped : t list
(** The direct-mapped sweep of Figures 6–8: 16 K, 32 K, 64 K, 128 K,
    192 K is not a power of two so the sweep uses 16/32/64/128/256 K. *)

val pp : Format.formatter -> t -> unit
