(** Byte addresses in the simulated address space.

    The simulator models a 32-bit-style flat address space: addresses are
    plain non-negative [int]s measured in bytes, and the machine word is
    four bytes wide (matching the MIPS DECstation used in the paper).  All
    allocator metadata lives at word granularity. *)

type t = int
(** A byte address. *)

val word_bytes : int
(** Size of a machine word in bytes (4). *)

val null : t
(** The distinguished null address (0).  No valid object or metadata cell
    is ever placed at [null]. *)

val is_null : t -> bool
(** [is_null a] is [a = null]. *)

val is_aligned : t -> alignment:int -> bool
(** [is_aligned a ~alignment] holds when [a] is a multiple of
    [alignment].  [alignment] must be positive. *)

val align_up : t -> alignment:int -> t
(** [align_up a ~alignment] rounds [a] up to the next multiple of
    [alignment].  [alignment] must be a positive power of two. *)

val align_down : t -> alignment:int -> t
(** [align_down a ~alignment] rounds [a] down to a multiple of
    [alignment].  [alignment] must be a positive power of two. *)

val word_aligned : t -> bool
(** [word_aligned a] holds when [a] is word-aligned. *)

val word_index : t -> int
(** [word_index a] is the index of the word containing byte [a]. *)

val block_index : t -> block_bytes:int -> int
(** [block_index a ~block_bytes] is the index of the cache block (of
    [block_bytes] bytes, a power of two) containing byte [a]. *)

val page_index : t -> page_bytes:int -> int
(** [page_index a ~page_bytes] is the index of the virtual-memory page
    containing byte [a]. *)

val pp : Format.formatter -> t -> unit
(** Prints an address in hexadecimal, e.g. [0x0001a3f0]. *)

(** {1 Index tables}

    Open-addressing tables keyed by a block or page index
    ({!block_index}, {!page_index}), for the per-event consumers: a
    lookup allocates nothing, and an insert allocates only when the
    table doubles.  The home slot is a
    multiplicative (Fibonacci) hash, not the identity: the indices of a
    power-of-two strided trace share their low bits, which an identity
    hash would pile into one probe run.  Any [int] but [min_int] is a
    key; [min_int] marks an empty slot, and every operation given it
    raises [Invalid_argument]. *)

(** A set of indices. *)
module Index_set : sig
  type t

  val create : int -> t
  (** [create n] has room for [n] keys before it first grows. *)

  val add : t -> int -> bool
  (** [add t k] adds [k]; [true] when it was not already present. *)

  val mem : t -> int -> bool
  val length : t -> int

  val clear : t -> unit
  (** Empties the set and keeps its room. *)
end

(** A map from indices to [int]s. *)
module Index_map : sig
  type t

  val create : int -> t
  (** [create n] has room for [n] keys before it first grows. *)

  val find : t -> int -> default:int -> int
  (** The value bound to the key, or [default] when it is absent. *)

  val replace : t -> int -> int -> unit
  (** Binds the key to the value, adding it or overwriting its value. *)

  val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
  (** Folds over the bindings in an unspecified order. *)

  val length : t -> int

  val clear : t -> unit
  (** Empties the map and keeps its room. *)
end
