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

(* A live heap object from the application's point of view.  [addr] and
   [size] are mutable because realloc may move/resize the object while
   its death-queue entry keeps pointing at the same record. *)
type obj = {
  mutable addr : int;
  mutable size : int;
  mutable idx : int;  (* position in the live array *)
  mutable dead : bool;
}

(* Growable array of live objects with O(1) pick and swap-remove. *)
module Live = struct
  type t = { mutable arr : obj array; mutable len : int }

  let dummy = { addr = 0; size = 0; idx = -1; dead = true }
  let create () = { arr = Array.make 1024 dummy; len = 0 }

  let add t o =
    if t.len = Array.length t.arr then begin
      let bigger = Array.make (2 * t.len) dummy in
      Array.blit t.arr 0 bigger 0 t.len;
      t.arr <- bigger
    end;
    o.idx <- t.len;
    t.arr.(t.len) <- o;
    t.len <- t.len + 1

  let remove t o =
    let last = t.arr.(t.len - 1) in
    t.arr.(o.idx) <- last;
    last.idx <- o.idx;
    t.len <- t.len - 1;
    t.arr.(t.len) <- dummy;
    o.idx <- -1

  let pick t rng = t.arr.(Rng.int rng t.len)
  let is_empty t = t.len = 0
end

(* Min-heap of (death step, obj). *)
module Deaths = struct
  type t = { mutable arr : (int * obj) array; mutable len : int }

  let create () = { arr = Array.make 1024 (0, Live.dummy); len = 0 }

  let push t time o =
    if t.len = Array.length t.arr then begin
      let bigger = Array.make (2 * t.len) (0, Live.dummy) in
      Array.blit t.arr 0 bigger 0 t.len;
      t.arr <- bigger
    end;
    t.arr.(t.len) <- (time, o);
    t.len <- t.len + 1;
    let i = ref (t.len - 1) in
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      fst t.arr.(parent) > fst t.arr.(!i)
    do
      let parent = (!i - 1) / 2 in
      let tmp = t.arr.(parent) in
      t.arr.(parent) <- t.arr.(!i);
      t.arr.(!i) <- tmp;
      i := parent
    done

  let peek_time t = if t.len = 0 then max_int else fst t.arr.(0)

  let pop t =
    let top = t.arr.(0) in
    t.len <- t.len - 1;
    t.arr.(0) <- t.arr.(t.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.len && fst t.arr.(l) < fst t.arr.(!smallest) then smallest := l;
      if r < t.len && fst t.arr.(r) < fst t.arr.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = t.arr.(!smallest) in
        t.arr.(!smallest) <- t.arr.(!i);
        t.arr.(!i) <- tmp;
        i := !smallest
      end
    done;
    snd top
end

let recent_window = 16

let run_with ?(sink = Memsim.Sink.null) ?(scale = 1.0)
    ?(on_alloc = fun ~site:_ ~long:_ ~size:_ -> ()) ~profile ~heap ~alloc () =
  Profile.validate profile;
  let p = profile in
  let counter = Memsim.Sink.Counter.create () in
  (* The simulated machine packs and batches its own reference stream
     (one packed delivery per 256 word-grain events — see Sim_memory),
     so the fanout is wired directly: each consumer pays one dispatch
     per batch, with no boxed Event.t ever materialised.  Order within
     the stream is preserved exactly; the flush below runs before any
     downstream state is read. *)
  Heap.set_sink heap
    (Memsim.Sink.fanout [ Memsim.Sink.Counter.sink counter; sink ]);
  let mem = Heap.mem heap in
  let rng = Rng.create p.Profile.seed in
  let steps = Profile.scaled_steps p ~scale in
  let live = Live.create () in
  let deaths = Deaths.create () in
  let recent = Array.make recent_window Live.dummy in
  let recent_cursor = ref 0 in
  let retained = ref 0 in
  (* The application's global segment sits in the data segment (static
     region), below the heap. *)
  let globals = Heap.alloc_static heap p.Profile.global_bytes in
  let hot_bytes = Int.max 64 (p.Profile.global_bytes / 16) in
  let alloc_prob = 1. /. p.Profile.alloc_every in
  (* Touch [bytes] of an object starting at a word-rounded offset. *)
  let touch o bytes write =
    let bytes = Int.max 4 (Int.min bytes o.size) in
    let max_off = o.size - bytes in
    let off =
      if max_off <= 0 || Rng.bool rng 0.7 then 0
      else Rng.int rng (max_off / 4 + 1) * 4
    in
    Heap.charge heap ((bytes + 3) / 4);
    if write then Memsim.Sim_memory.write_bytes mem (o.addr + off) bytes
    else Memsim.Sim_memory.read_bytes mem (o.addr + off) bytes
  in
  for step = 0 to steps - 1 do
    (* Deaths due now. *)
    while Deaths.peek_time deaths <= step do
      let o = Deaths.pop deaths in
      if not o.dead then begin
        o.dead <- true;
        Live.remove live o;
        Allocator.free alloc o.addr
      end
    done;
    (* Births.  While the (linearly growing, scale-adjusted) retained
       target is unmet, the allocation is persistent program data drawn
       from the retained size mix; otherwise it is a temporary with an
       exponential lifetime. *)
    if Rng.bool rng alloc_prob then begin
      let target =
        int_of_float
          (float_of_int p.Profile.retained_bytes *. scale
          *. float_of_int (step + 1) /. float_of_int steps)
      in
      let is_retained = !retained < target in
      let size =
        Dist.sample
          (if is_retained then p.Profile.retained_size_dist
           else p.Profile.size_dist)
          rng
      in
      (* Lifetime is decided up front so the allocation site can carry
         lifetime signal (Barrett & Zorn): short-lived allocations come
         from one half of the site space, long-lived from the other,
         with [site_noise] contradictions. *)
      let life =
        if is_retained then None
        else begin
          let mean =
            if Rng.bool rng p.Profile.mortal_lifetime_long_frac then
              10. *. p.Profile.mortal_lifetime_mean
            else p.Profile.mortal_lifetime_mean
          in
          Some (Int.max 1 (int_of_float (Rng.exponential rng ~mean)))
        end
      in
      let long =
        match life with
        | None -> true
        | Some l -> float_of_int l > 2. *. p.Profile.mortal_lifetime_mean
      in
      let site =
        let half = p.Profile.site_count / 2 in
        let in_long_half =
          if Rng.bool rng p.Profile.site_noise then not long else long
        in
        if in_long_half then half + Rng.int rng (p.Profile.site_count - half)
        else Rng.int rng half
      in
      let addr = Allocator.malloc_sited alloc ~site size in
      on_alloc ~site ~long ~size;
      let o = { addr; size; idx = -1; dead = false } in
      Live.add live o;
      recent.(!recent_cursor mod recent_window) <- o;
      incr recent_cursor;
      (* Initialisation writes. *)
      touch o (Int.min size p.Profile.init_touch_bytes) true;
      (match life with
      | None -> retained := !retained + size
      | Some l -> Deaths.push deaths (step + l) o)
    end;
    (* Buffer growth: realloc one live object to twice its size (capped),
       as interpreters growing strings/stacks do. *)
    if
      p.Profile.realloc_prob > 0.
      && (not (Live.is_empty live))
      && Rng.bool rng p.Profile.realloc_prob
    then begin
      let o = Live.pick live rng in
      if (not o.dead) && o.size < p.Profile.realloc_cap then begin
        let bigger =
          Int.min p.Profile.realloc_cap (Int.max (o.size + 4) (o.size * 2))
        in
        let fresh = Allocator.realloc alloc o.addr bigger in
        o.addr <- fresh;
        o.size <- bigger;
        (* The app initialises the grown tail. *)
        touch o (Int.min bigger p.Profile.init_touch_bytes) true
      end
    end;
    (* Heap references. *)
    if not (Live.is_empty live) then
      for _ = 1 to p.Profile.refs_per_step do
        let o =
          if Rng.bool rng p.Profile.recent_bias then begin
            let upto = Int.min !recent_cursor recent_window in
            let cand = recent.((!recent_cursor - 1 - Rng.int rng upto + (2 * recent_window)) mod recent_window) in
            if cand.dead || cand.idx < 0 then Live.pick live rng else cand
          end
          else Live.pick live rng
        in
        touch o p.Profile.touch_bytes (Rng.bool rng p.Profile.write_fraction)
      done;
    (* Global segment references. *)
    for _ = 1 to p.Profile.global_refs_per_step do
      let span =
        if Rng.bool rng p.Profile.global_hot_fraction then hot_bytes
        else p.Profile.global_bytes
      in
      let off = Rng.int rng (span / 4) * 4 in
      Heap.charge heap 1;
      if Rng.bool rng p.Profile.write_fraction then
        Memsim.Sim_memory.write_bytes mem (globals + off) 4
      else Memsim.Sim_memory.read_bytes mem (globals + off) 4
    done;
    (* Private computation. *)
    Heap.charge heap p.Profile.compute_per_step
  done;
  Memsim.Sim_memory.flush mem;
  let cost = Heap.cost heap in
  { profile = p;
    allocator_key = Allocator.name alloc;
    steps_run = steps;
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

let run ?sink ?scale ?heap_bytes ~profile ~allocator () =
  let heap = Heap.create ?heap_bytes () in
  let alloc = build_allocator ~profile ~allocator heap in
  run_with ?sink ?scale ~profile ~heap ~alloc ()

(* Fixed, not the measured run's scale: as in Barrett & Zorn, a program
   is profiled once and its table serves every later input, so every
   measured scale sees the same predictions. *)
let training_scale = 0.05

let train_predictor ~profile () =
  let trainer =
    Predictive.Trainer.create ~sites:profile.Profile.site_count
  in
  let heap = Heap.create () in
  let alloc = Registry.build "bsd" heap in
  let _r =
    run_with ~scale:training_scale
      ~on_alloc:(fun ~site ~long ~size:_ ->
        Predictive.Trainer.observe trainer ~site ~long)
      ~profile ~heap ~alloc ()
  in
  Predictive.Trainer.finish trainer
