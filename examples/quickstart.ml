(* Quickstart: build a simulated machine, run an allocator on it by
   hand, and watch the reference trace hit a cache.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A 16 KB direct-mapped cache with 32-byte blocks (the paper's
     configuration) consuming the trace. *)
  let cache = Cachesim.Multi.create [ Cachesim.Config.make (16 * 1024) ] in
  let counter = Memsim.Sink.Counter.create () in
  let sink =
    Memsim.Sink.fanout
      [ Cachesim.Multi.sink cache; Memsim.Sink.Counter.sink counter ]
  in

  (* The simulated machine: traced memory + heap + instruction costs. *)
  let heap = Allocators.Heap.create ~sink () in

  (* Pick an allocator.  Try "firstfit", "bsd", "gnu-local", ... *)
  let alloc = Allocators.Registry.build "quickfit" heap in

  (* malloc / write / free, like a tiny C program. *)
  let xs =
    List.init 1000 (fun i -> Allocators.Allocator.malloc alloc (8 + (i mod 4 * 8)))
  in
  List.iter
    (fun a -> Memsim.Sim_memory.write_bytes (Allocators.Heap.mem heap) a 16)
    xs;
  List.iter (Allocators.Allocator.free alloc) xs;

  (* Allocate again: a good allocator re-uses the cache-warm memory. *)
  let ys = List.init 1000 (fun i -> Allocators.Allocator.malloc alloc (8 + (i mod 4 * 8))) in
  List.iter (Allocators.Allocator.free alloc) ys;

  (* The machine batches its packed trace internally: flush before
     reading anything downstream of the sink. *)
  Allocators.Heap.flush_trace heap;
  let stats = snd (List.hd (Cachesim.Multi.results cache)) in
  let cost = Allocators.Heap.cost heap in
  Printf.printf "allocator        : %s\n" (Allocators.Allocator.name alloc);
  Printf.printf "trace events     : %d\n" (Memsim.Sink.Counter.total counter);
  Printf.printf "instructions     : %d (malloc %d, free %d)\n"
    (Allocators.Cost.total cost)
    (Allocators.Cost.malloc cost)
    (Allocators.Cost.free cost);
  Printf.printf "cache accesses   : %d\n" stats.Cachesim.Stats.accesses;
  Printf.printf "cache miss rate  : %.2f%%\n"
    (Cachesim.Stats.miss_rate_pct stats);
  Printf.printf "heap used (sbrk) : %d bytes\n" (Allocators.Heap.heap_used heap);
  (* LIFO freelists hand back the most recently freed block first. *)
  let reused =
    List.length (List.filter (fun y -> List.mem y xs) ys)
  in
  Printf.printf "reused addresses : %d / %d\n" reused (List.length ys)
