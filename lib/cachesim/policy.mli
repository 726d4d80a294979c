(** Replacement policies for set-associative caches.

    The paper's simulations are direct-mapped; modern hierarchies use
    pseudo-LRU families.  Each policy here is pinned against a
    deliberately naive reference simulator ([test/oracle.ml]) by a
    qcheck differential suite, under a shared victim-side contract:

    - invalid ways are filled leftmost-first, before any replacement;
    - {!State.victim} is consulted only when the set is full. *)

type qlru = {
  hit_age : int;  (** age a line is set to on a hit (0..3) *)
  insert_age : int;  (** age a freshly filled line starts at (0..3) *)
}
(** Parameters of the quad-age LRU family: 2-bit age per line, victim
    is the leftmost line of age 3 after ageing the whole set up to a
    maximum of 3 when no such line exists. *)

type t =
  | Lru  (** true least-recently-used *)
  | Plru
      (** tree pseudo-LRU (Intel L1s; pre-Ivy-Bridge L2/L3); at most 64
          ways, see {!Config.make} *)
  | Qlru of qlru  (** quad-age LRU (Skylake-era L2/L3 variants) *)

val qlru_h00_m1 : qlru
(** Hits rejuvenate to age 0, fills insert at age 1 (Skylake L2-like). *)

val qlru_h11_m1 : qlru
(** Hits rejuvenate to age 1, fills insert at age 1 (Haswell/Skylake
    L3-like). *)

val qlru_h00_m0 : qlru
(** Hits and fills both go to age 0 (most protective variant). *)

val is_lru : t -> bool
(** [is_lru p] is true only for {!Lru}, the policy whose configs keep
    their paper-era names. *)

val to_string : t -> string
(** Stable token used in config names, artifact encoding and the CLI:
    ["lru"], ["plru"], ["qlru-hH-mM"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] carries a human-readable message
    listing the accepted forms. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Mutable per-set replacement state of a {!Forest} member.  One value
    covers every set of a cache. *)
module State : sig
  type policy = t
  type t

  val create : policy -> num_sets:int -> assoc:int -> t option
  (** [None] for {!Lru}, which keeps no state: a {!Forest} holds an LRU
      set's ways most-recent-first, so its victim is the last way.
      Like a forest member's tags, the state starts out storing one way
      per set: {!grow} widens it. *)

  val grow : t -> unit
  (** Doubles the ways stored per set, keeping each set's stored ways
      in place; called with the forest member's own [grow].  Only QLRU
      stores per-way state; PLRU's tree bits are per set. *)

  val hit : t -> set:int -> way:int -> unit
  (** Record a hit on [way] of [set]. *)

  val fill : t -> set:int -> way:int -> unit
  (** Record a fill (miss refill) into [way] of [set]. *)

  val hit_after_fill_changes : t -> bool
  (** Whether a hit on the way just filled, with nothing else touched
      in between, changes the state: true only for a QLRU whose hit age
      differs from its insert age.  Under PLRU such a repeated touch
      changes no later victim choice. *)

  val victim : t -> set:int -> int
  (** Choose the way to evict from a {e full} [set].  Must not be
      called while the set still has invalid ways, so the state has
      been grown to the full associativity. *)

  val reset : t -> unit
  (** Forget all recency state (cache flush). *)
end
