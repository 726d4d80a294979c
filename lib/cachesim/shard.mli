(** Domain-parallel cache simulation of one trace, partitioned by
    cache set.

    Complements the (program x allocator) grid parallelism of
    [Exec.Pool]: where the grid shards {e cells} across domains, this
    shards a {e single} simulation — each domain owns a range of cache
    sets, scans the whole captured trace, and simulates only the blocks
    mapping to its sets.  Replacement state is per set under every
    {!Policy.t}, so set ranges are independent and the merged
    statistics are identical to a sequential run (pinned by test); the
    cost is that every domain reads the full trace, so the speedup
    ceiling is the simulate/scan cost ratio. *)

val replay :
  ?domains:int ->
  configs:Config.t list ->
  Memsim.Trace_buffer.t ->
  (Config.t * Stats.t) list
(** [replay ~domains ~configs trace] simulates the forest family
    [configs] (one shared block size — see {!Forest.create}) over the captured [trace] using [domains] domains
    (default 1 = sequential, this domain included in the count), and
    returns per-config statistics identical to {!Forest.results} after
    a sequential replay.

    @raise Invalid_argument if [domains < 1] or the configs are not a
    valid forest family. *)
