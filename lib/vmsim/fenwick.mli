(** Fenwick (binary indexed) tree over a fixed range of integer
    positions, used by {!Lru_stack} to count, in O(log n), the older
    keys more recent than a given one. *)

type t

val create : int -> t
(** [create n] is a tree over positions [0 .. n-1], all zero. *)

val capacity : t -> int

val add : t -> int -> int -> unit
(** [add t i delta] adds [delta] at position [i]. *)

val prefix_sum : t -> int -> int
(** [prefix_sum t i] is the sum of positions [0 .. i] ([0] when
    [i < 0]). *)

val range_sum : t -> lo:int -> hi:int -> int
(** [range_sum t ~lo ~hi] is the sum over [lo .. hi] inclusive ([0] when
    the range is empty). *)

val total : t -> int
(** Sum over all positions. *)

val clear : t -> unit
(** Resets all positions to zero. *)
