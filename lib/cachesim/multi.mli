(** Simulate a set of cache configurations over one trace pass.

    The paper sweeps cache sizes (Figures 6–8); feeding every
    configuration from the same execution-driven trace is how TYCHO was
    used.  All caches see the identical reference stream.

    Internally the configurations are partitioned by block size into
    {!Forest} families: direct-mapped members are simulated in one
    inclusion walk per reference, set-associative members are probed
    individually but share the family's access profile and cold-miss
    table.  One walk per batch feeds every family
    ({!Forest.sink_families}).  The partition is invisible in the
    results — statistics are bit-identical to simulating every
    configuration on its own, under any replacement {!Policy.t}. *)

type t

val create : Config.t list -> t
(** @raise Invalid_argument on an empty configuration list. *)

val sink : t -> Memsim.Sink.t
(** Forwards every event to every configuration. *)

val results : t -> (Config.t * Stats.t) list
(** Configuration and statistics per cache, in creation order.  The
    statistics are copies: later traffic, or a {!reset}, leaves them
    as they were. *)

val reset : t -> unit
(** {!Forest.reset} on every family: the instance reports what a fresh
    one would for the next trace, and keeps the storage it grew. *)
