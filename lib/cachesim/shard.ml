(* Domain-parallel replay of one captured trace through a forest
   family, partitioned by cache set.

   Each of [domains] workers owns a contiguous range of the family's
   smallest member's set indices (see {!Forest.create}'s [?shard]) and
   scans the FULL trace, simulating only its own blocks.  The trace
   chunks are packed int arrays shared read-only across domains; all
   mutable simulation state is per-worker, so there is no
   synchronisation on the hot path at all.  Afterwards the workers'
   counters are summed with {!Forest.absorb}; because every set of
   every member belongs to exactly one worker, the merged statistics
   are identical to a sequential replay (pinned by test). *)

let replay ?(domains = 1) ~configs trace =
  if domains < 1 then
    invalid_arg "Cachesim.Shard.replay: domains must be >= 1";
  if domains = 1 then begin
    let f = Forest.create configs in
    Memsim.Trace_buffer.iter_chunks (Forest.sink f) trace;
    Forest.results f
  end
  else begin
    let chunks = Memsim.Trace_buffer.chunks trace in
    let worker i () =
      let f = Forest.create ~shard:(i, domains) configs in
      Array.iter (Forest.sink f) chunks;
      f
    in
    (* Workers 1..n-1 run in spawned domains; worker 0 runs here, so
       [domains] counts this domain too. *)
    let spawned =
      Array.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    let f0 = worker 0 () in
    Array.iter (fun h -> Forest.absorb f0 (Domain.join h)) spawned;
    Forest.results f0
  end
