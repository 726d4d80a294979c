(** Simulate a family of LRU cache configurations over one trace pass.

    The paper sweeps cache sizes (Figures 6–8); feeding every
    configuration from the same execution-driven trace is how TYCHO was
    used.  All caches see the identical reference stream.

    Internally the configurations are partitioned by block size into
    {!Forest} families: direct-mapped members are simulated in one
    inclusion walk per reference, set-associative members are probed
    individually but share the family's access profile and cold-miss
    table.  The partition is invisible in the results — statistics are
    bit-identical to simulating every configuration on its own.  Other
    replacement policies fall outside the forest's inclusion argument;
    simulate them with {!Hierarchy}, as the {!Cpu} presets do. *)

type t

val create : Config.t list -> t
(** @raise Invalid_argument on an empty configuration list or a
    configuration whose policy is not {!Policy.Lru}; the message names
    the configuration and its policy. *)

val sink : t -> Memsim.Sink.t
(** Forwards every event to every configuration. *)

val results : t -> (Config.t * Stats.t) list
(** Configuration and statistics per cache, in creation order. *)

val find : t -> name:string -> Config.t * Stats.t
(** [find t ~name] looks a configuration up by display name.

    @raise Invalid_argument if no configuration has that name; the
    message lists the known names. *)

val miss_rate_series : t -> (string * float) list
(** [(name, miss-rate %)] per configuration — one figure series. *)
