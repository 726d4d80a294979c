(** Runs a synthetic application against an allocator, producing the
    fused reference trace (application + allocator) the paper's
    simulations consume.

    A run is two parts.  The {!Schedule} turns (profile, scale, seed)
    into chunks of packed ops: malloc (object id, size, site, lifetime
    class), free (id), realloc (id, new size), object touch (id,
    offset, bytes, write), global touch (offset, write) and compute
    charge.  It draws every random choice the application makes, and
    none of them depends on the allocator.  The {!Player} applies each
    chunk to a {!Allocators.Heap.t} and an allocator: it maps object ids
    to addresses and makes every allocator call, instruction charge and
    traced access.  [run] streams the one into the other chunk by
    chunk, so every allocator played at the same (profile, scale) sees
    the same op stream.

    The heap's trace goes to the caller's sink (typically a
    {!Memsim.Sink.fanout} of cache simulators, the page simulator and a
    counter). *)

type result = {
  profile : Profile.t;
  allocator_key : string;
  steps_run : int;
  instructions : int;  (** Total I of the paper's model. *)
  app_instructions : int;
  malloc_instructions : int;
  free_instructions : int;
  data_refs : int;  (** Total D (reference events). *)
  app_refs : int;
  allocator_refs : int;
  heap_used : int;  (** Bytes obtained from sbrk. *)
  max_live_bytes : int;
  alloc_stats : Allocators.Alloc_stats.t;
}

val allocator_fraction : result -> float
(** Fraction of instructions spent in malloc/free — one bar of
    Figure 1. *)

val build_allocator :
  profile:Profile.t -> allocator:string -> Allocators.Heap.t ->
  Allocators.Allocator.t
(** Instantiate a registry allocator on [heap]; ["custom"] is trained
    on [profile]'s size histogram (the CustoMalloc workflow). *)

val run :
  ?sink:Memsim.Sink.t ->
  ?scale:float ->
  profile:Profile.t ->
  allocator:string ->
  unit ->
  result
(** Plays [profile] (at [scale], default 1.0) against the named
    allocator, built by {!build_allocator}.  Every data reference of
    the run is delivered to [sink].  [scale] shrinks both the step count
    and the retained-heap target, so the lifetime mix and the heap's
    growth curve keep their shape.  Miss rates still drift upward with
    scale: GNU local at 64K on Espresso misses 7.62 % at scale 0.5 and
    8.51 % at 1.0. *)

val run_with :
  ?sink:Memsim.Sink.t ->
  ?scale:float ->
  profile:Profile.t ->
  heap:Allocators.Heap.t ->
  alloc:Allocators.Allocator.t ->
  unit ->
  result
(** Like {!run} on a caller-built heap/allocator pair (for allocators
    the caller keeps a handle on, like {!Allocators.Predictive}).  The
    allocator is called with each malloc's site
    ({!Allocators.Allocator.malloc_sited}). *)

val training_scale : float
(** The scale of every profiling pass (0.05), whatever the measured one. *)

val train_predictor :
  profile:Profile.t -> unit -> Allocators.Predictive.prediction array
(** Profiles [profile] at {!training_scale} and returns per-site
    lifetime predictions — the Barrett & Zorn workflow the paper's §5.1
    points at.  The pass is a fold over the {!Schedule}'s mallocs, each
    one's site and lifetime class fed to a
    {!Allocators.Predictive.Trainer}: no heap, allocator or trace is
    involved, so the table is the one any allocator's run would train. *)
