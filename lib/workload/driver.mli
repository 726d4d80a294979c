(** Runs a synthetic application against an allocator, producing the
    fused reference trace (application + allocator) the paper's
    simulations consume.

    The driver owns the simulated machine: it builds a {!Allocators.Heap.t}
    whose trace goes to the caller's sink (typically a
    {!Memsim.Sink.fanout} of cache simulators, the page simulator and a
    counter), constructs the requested allocator on it, and plays the
    profile's workload. *)

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
  ?heap_bytes:int ->
  profile:Profile.t ->
  allocator:string ->
  unit ->
  result
(** Plays [profile] (at [scale], default 1.0) against the named
    allocator, built by {!build_allocator}.  Every data reference of
    the run is delivered to [sink].  [scale] shrinks both the step count
    and the retained-heap target, so behaviour (lifetime mix, miss-rate
    regime) is approximately scale-invariant. *)

val run_with :
  ?sink:Memsim.Sink.t ->
  ?scale:float ->
  ?on_alloc:(site:int -> long:bool -> size:int -> unit) ->
  profile:Profile.t ->
  heap:Allocators.Heap.t ->
  alloc:Allocators.Allocator.t ->
  unit ->
  result
(** Like {!run} on a caller-built heap/allocator pair (for allocators
    the caller keeps a handle on, like {!Allocators.Predictive}).
    [on_alloc] observes every allocation's site and eventual lifetime
    class — the profiling feed for {!Allocators.Predictive.Trainer}. *)

val training_scale : float
(** The scale of every profiling pass (0.05), whatever the measured one. *)

val train_predictor :
  profile:Profile.t -> unit -> Allocators.Predictive.prediction array
(** Runs a profiling pass at {!training_scale} and returns per-site
    lifetime predictions — the Barrett & Zorn workflow the paper's §5.1
    points at. *)
