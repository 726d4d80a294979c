(** Deterministic pseudo-random numbers (SplitMix64).

    The paper's tools "generate deterministic results, [so] our
    experiments did not require statistically averaging multiple runs";
    we keep that property by seeding every workload explicitly and never
    touching global randomness. *)

type t

val create : int -> t
(** Seeded generator; equal seeds give equal streams. *)

val copy : t -> t

val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]; [bound >= 1]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val geometric : t -> float -> int
(** [geometric t p] counts Bernoulli([p]) failures before the first
    success; mean [(1-p)/p].  [0 < p <= 1]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given positive mean. *)
