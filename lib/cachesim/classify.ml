(* Fully-associative LRU occupancy is tracked with an intrusive
   doubly-linked list over nodes stored in a hash table, giving O(1)
   touch and eviction. *)

type node = {
  block : int;
  mutable prev : node option;
  mutable next : node option;
}

type lru = {
  capacity : int;
  table : (int, node) Hashtbl.t;
  mutable head : node option;  (* MRU *)
  mutable tail : node option;  (* LRU *)
  mutable size : int;
}

let lru_create capacity =
  { capacity; table = Hashtbl.create 4096; head = None; tail = None; size = 0 }

let unlink l n =
  (match n.prev with Some p -> p.next <- n.next | None -> l.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> l.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front l n =
  n.next <- l.head;
  n.prev <- None;
  (match l.head with Some h -> h.prev <- Some n | None -> l.tail <- Some n);
  l.head <- Some n

(* Returns true when the access hits in the fully-associative cache. *)
let lru_touch l block =
  match Hashtbl.find_opt l.table block with
  | Some n ->
      unlink l n;
      push_front l n;
      true
  | None ->
      let n = { block; prev = None; next = None } in
      Hashtbl.replace l.table block n;
      push_front l n;
      l.size <- l.size + 1;
      if l.size > l.capacity then begin
        match l.tail with
        | Some victim ->
            unlink l victim;
            Hashtbl.remove l.table victim.block;
            l.size <- l.size - 1
        | None -> assert false
      end;
      false

type counts = { cold : int; capacity : int; conflict : int; hits : int }

type t = {
  cache : Cache.t;
  lru : lru;
  seen : (int, unit) Hashtbl.t;
  mutable cold : int;
  mutable capacity_misses : int;
  mutable conflict : int;
  mutable hits : int;
}

let create config =
  { cache = Cache.create config;
    lru = lru_create (Config.num_blocks config);
    seen = Hashtbl.create 4096;
    cold = 0;
    capacity_misses = 0;
    conflict = 0;
    hits = 0 }

let classify_block t ~kind ~source block =
  let fa_hit = lru_touch t.lru block in
  let miss = Cache.access_block t.cache ~kind ~source ~block in
  if not miss then t.hits <- t.hits + 1
  else if not (Hashtbl.mem t.seen block) then t.cold <- t.cold + 1
  else if fa_hit then t.conflict <- t.conflict + 1
  else t.capacity_misses <- t.capacity_misses + 1;
  if not (Hashtbl.mem t.seen block) then Hashtbl.replace t.seen block ()

let sink t (b : Memsim.Event.Batch.t) =
  let bb = (Cache.config t.cache).Config.block_bytes in
  for i = 0 to b.Memsim.Event.Batch.len - 1 do
    let addr = Array.unsafe_get b.Memsim.Event.Batch.addrs i in
    let meta = Array.unsafe_get b.Memsim.Event.Batch.metas i in
    let kind = Memsim.Event.Packed.kind meta
    and source = Memsim.Event.Packed.source meta in
    for block = addr / bb to (addr + (meta lsr 3) - 1) / bb do
      classify_block t ~kind ~source block
    done
  done

let counts t =
  { cold = t.cold; capacity = t.capacity_misses; conflict = t.conflict;
    hits = t.hits }

let total_misses t = t.cold + t.capacity_misses + t.conflict
let stats t = Cache.stats t.cache
