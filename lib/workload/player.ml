open Allocators

type t = {
  heap : Heap.t;
  mem : Memsim.Sim_memory.t;
  alloc : Allocator.t;
  globals : Memsim.Addr.t;
  mutable addrs : int array;  (* object id -> payload address *)
}

let create ~profile ~heap ~alloc =
  { heap;
    mem = Heap.mem heap;
    alloc;
    (* The application's global segment sits in the data segment (static
       region), below the heap. *)
    globals = Heap.alloc_static heap profile.Profile.global_bytes;
    addrs = Array.make 64 0 }

(* Ops in falling order of frequency: a step is dozens of touches and
   at most one malloc, free or realloc.  The application's instruction
   charges are summed over the chunk and charged once: the allocator
   calls between them charge their own phases. *)
let play t s =
  let ops = Schedule.ops s and n = Schedule.length s in
  let mem = t.mem in
  let op k = Array.unsafe_get ops k in
  let app = ref 0 in
  let i = ref 0 in
  while !i < n do
    let at = !i in
    let tag = op at in
    if tag = Schedule.Op.touch then begin
      let addr = t.addrs.(op (at + 1)) + op (at + 2) and bytes = op (at + 3) in
      app := !app + ((bytes + 3) / 4);
      Memsim.Sim_memory.access_bytes mem ~write:(op (at + 4) = 1) addr bytes;
      i := at + 5
    end
    else if tag = Schedule.Op.global then begin
      incr app;
      Memsim.Sim_memory.access_bytes mem ~write:(op (at + 2) = 1)
        (t.globals + op (at + 1)) 4;
      i := at + 3
    end
    else begin
      if tag = Schedule.Op.compute then app := !app + op (at + 1)
      else if tag = Schedule.Op.malloc then begin
        let id = op (at + 1) in
        let addr = Allocator.malloc_sited t.alloc ~site:(op (at + 3)) (op (at + 2)) in
        if id = Array.length t.addrs then begin
          let bigger = Array.make (2 * id) 0 in
          Array.blit t.addrs 0 bigger 0 id;
          t.addrs <- bigger
        end;
        t.addrs.(id) <- addr
      end
      else if tag = Schedule.Op.free then
        Allocator.free t.alloc t.addrs.(op (at + 1))
      else begin
        let id = op (at + 1) in
        t.addrs.(id) <- Allocator.realloc t.alloc t.addrs.(id) (op (at + 2))
      end;
      i := at + Schedule.Op.width tag
    end
  done;
  Heap.charge t.heap !app
