open Allocators

type result = {
  profile : Profile.t;
  allocator_key : string;
  steps_run : int;
  instructions : int;
  app_instructions : int;
  malloc_instructions : int;
  free_instructions : int;
  data_refs : int;
  app_refs : int;
  allocator_refs : int;
  heap_used : int;
  max_live_bytes : int;
  alloc_stats : Alloc_stats.t;
}

let allocator_fraction r =
  if r.instructions = 0 then 0.
  else
    float_of_int (r.malloc_instructions + r.free_instructions)
    /. float_of_int r.instructions

let run_with ?(sink = Memsim.Sink.null) ?(scale = 1.0) ~profile ~heap ~alloc
    () =
  let schedule = Schedule.create ~profile ~scale in
  let counter = Memsim.Sink.Counter.create () in
  (* The simulated machine packs and batches its own reference stream
     (one packed delivery per 256 word-grain events — see Sim_memory),
     so the fanout is wired directly: each consumer pays one dispatch
     per batch, with no boxed Event.t ever materialised.  Order within
     the stream is preserved exactly; the flush below runs before any
     downstream state is read. *)
  Heap.set_sink heap
    (Memsim.Sink.fanout [ Memsim.Sink.Counter.sink counter; sink ]);
  let player = Player.create ~profile ~heap ~alloc in
  while Schedule.next schedule do
    Player.play player schedule
  done;
  Heap.flush_trace heap;
  let cost = Heap.cost heap in
  { profile;
    allocator_key = Allocator.name alloc;
    steps_run = Schedule.steps schedule;
    instructions = Cost.total cost;
    app_instructions = Cost.app cost;
    malloc_instructions = Cost.malloc cost;
    free_instructions = Cost.free cost;
    data_refs = Memsim.Sink.Counter.total counter;
    app_refs = Memsim.Sink.Counter.by_source counter Memsim.Event.App;
    allocator_refs =
      Memsim.Sink.Counter.by_source counter Memsim.Event.Malloc
      + Memsim.Sink.Counter.by_source counter Memsim.Event.Free;
    heap_used = Heap.heap_used heap;
    max_live_bytes = (Allocator.stats alloc).Alloc_stats.max_live_bytes;
    alloc_stats = Allocator.stats alloc }

(* "custom" is the synthesized allocator: its size classes are trained
   on the profile's own request mix, like CustoMalloc generating an
   allocator for a measured program. *)
let build_allocator ~profile ~allocator heap =
  if allocator = "custom" then
    let histogram =
      Dist.to_histogram profile.Profile.size_dist ~scale:100_000
    in
    Custom.allocator (Custom.create_for ~histogram heap)
  else Registry.build allocator heap

let run ?sink ?scale ~profile ~allocator () =
  let heap = Heap.create () in
  let alloc = build_allocator ~profile ~allocator heap in
  run_with ?sink ?scale ~profile ~heap ~alloc ()

(* Fixed, not the measured run's scale: as in Barrett & Zorn, a program
   is profiled once and its table serves every later input, so every
   measured scale sees the same predictions. *)
let training_scale = 0.05

(* The profiling pass reads only each allocation's site and lifetime
   class, both fixed by the schedule: a fold over its mallocs, with no
   heap, allocator or trace behind it. *)
let train_predictor ~profile () =
  let trainer =
    Predictive.Trainer.create ~sites:profile.Profile.site_count
  in
  let schedule = Schedule.create ~profile ~scale:training_scale in
  let ops = Schedule.ops schedule in
  while Schedule.next schedule do
    let i = ref 0 in
    while !i < Schedule.length schedule do
      let tag = ops.(!i) in
      if tag = Schedule.Op.malloc then
        Predictive.Trainer.observe trainer ~site:ops.(!i + 3)
          ~long:(ops.(!i + 4) = 1);
      i := !i + Schedule.Op.width tag
    done
  done;
  Predictive.Trainer.finish trainer
