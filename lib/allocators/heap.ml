open Memsim

type t = {
  mem : Sim_memory.t;
  cost : Cost.t;
  heap_region : Region.t;
  static_region : Region.t;
}

let sbrk_instructions = 40

let heap_bytes = 64 * 1024 * 1024
let static_bytes = 4 * 1024 * 1024

let create ?(sink = Sink.null) () =
  let layout = Region.Layout.create () in
  let static_region = Region.Layout.add layout ~name:"static" ~size:static_bytes in
  let heap_region = Region.Layout.add layout ~name:"heap" ~size:heap_bytes in
  let mem = Sim_memory.create ~sink () in
  { mem; cost = Cost.create (); heap_region; static_region }

let mem t = t.mem
let cost t = t.cost
let heap_region t = t.heap_region
let static_region t = t.static_region
let set_sink t sink = Sim_memory.set_sink t.mem sink
let flush_trace t = Sim_memory.flush t.mem

let with_phase t phase f =
  let saved = Cost.phase t.cost in
  Cost.set_phase t.cost phase;
  Sim_memory.set_source t.mem (Cost.source_of_phase phase);
  Fun.protect
    ~finally:(fun () ->
      Cost.set_phase t.cost saved;
      Sim_memory.set_source t.mem (Cost.source_of_phase saved))
    f

let load t a =
  Cost.charge t.cost 1;
  Sim_memory.load t.mem a

let store t a v =
  Cost.charge t.cost 1;
  Sim_memory.store t.mem a v

let charge t n = Cost.charge t.cost n

let sbrk t n =
  Cost.charge t.cost sbrk_instructions;
  Region.extend t.heap_region n

let alloc_static t n = Region.extend t.static_region n
let heap_used t = Region.used_bytes t.heap_region
let peek t a = Sim_memory.peek t.mem a
let poke t a v = Sim_memory.poke t.mem a v
