type t = {
  config : Config.t;
  (* tags.((set * assoc) + way) holds the block index resident in that
     way; -1 = invalid.  Way positions are physical: replacement order
     lives in [policy], not in the array layout. *)
  tags : int array;
  (* dirty.(i) mirrors tags.(i): the resident block has been written
     since it was fetched (write-back accounting). *)
  dirty : bool array;
  num_sets : int;
  assoc : int;
  block_shift : int;  (* log2 block_bytes: block index = addr lsr shift *)
  seen : (int, unit) Hashtbl.t;  (* blocks ever referenced, for cold misses *)
  policy : Policy.State.t;  (* per-set replacement state (assoc > 1) *)
  mutable stats : Stats.t;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create config =
  let num_sets = Config.num_sets config in
  let assoc = config.Config.associativity in
  { config;
    tags = Array.make (num_sets * assoc) (-1);
    dirty = Array.make (num_sets * assoc) false;
    num_sets;
    assoc;
    block_shift = log2 config.Config.block_bytes;
    seen = Hashtbl.create 4096;
    policy = Policy.State.create config.Config.policy ~num_sets ~assoc;
    stats = Stats.create () }

let config t = t.config
let stats t = t.stats

(* Touch [block] in its set: return whether it missed.  Invalid ways
   fill leftmost-first; only a full set consults the policy for a
   victim (the contract the differential oracle shares).  A write marks
   the block dirty; evicting a dirty block counts a writeback. *)
let touch t block ~write =
  let set = block land (t.num_sets - 1) in
  let base = set * t.assoc in
  if t.assoc = 1 then
    (* Direct-mapped fast path: replacement is forced, no policy state. *)
    if t.tags.(base) = block then begin
      if write then t.dirty.(base) <- true;
      false
    end
    else begin
      if t.tags.(base) >= 0 && t.dirty.(base) then
        Stats.record_writeback t.stats;
      t.tags.(base) <- block;
      t.dirty.(base) <- write;
      true
    end
  else begin
    let rec find i = if i >= t.assoc then -1
      else if t.tags.(base + i) = block then i
      else find (i + 1)
    in
    let pos = find 0 in
    if pos >= 0 then begin
      Policy.State.hit t.policy ~set ~way:pos;
      if write then t.dirty.(base + pos) <- true;
      false
    end
    else begin
      let rec first_invalid i =
        if i >= t.assoc then -1
        else if t.tags.(base + i) < 0 then i
        else first_invalid (i + 1)
      in
      let way =
        match first_invalid 0 with
        | -1 -> Policy.State.victim t.policy ~set
        | w -> w
      in
      if t.tags.(base + way) >= 0 && t.dirty.(base + way) then
        Stats.record_writeback t.stats;
      t.tags.(base + way) <- block;
      t.dirty.(base + way) <- write;
      Policy.State.fill t.policy ~set ~way;
      true
    end
  end

let access_block t ~kind ~source ~block =
  let miss = touch t block ~write:(kind = Memsim.Event.Write) in
  let cold =
    miss
    && not (Hashtbl.mem t.seen block)
  in
  if miss && cold then Hashtbl.replace t.seen block ();
  Stats.record t.stats ~kind ~source ~miss ~cold;
  miss

let access t (e : Memsim.Event.t) =
  let first = e.addr lsr t.block_shift in
  let last = (e.addr + e.size - 1) lsr t.block_shift in
  for block = first to last do
    ignore (access_block t ~kind:e.kind ~source:e.source ~block)
  done

(* Packed hot path: kind/source are decoded once per event from the
   meta word; no Event.t record is built. *)
let access_packed t ~addr ~meta =
  let kind = Memsim.Event.Packed.kind meta in
  let source = Memsim.Event.Packed.source meta in
  let first = addr lsr t.block_shift in
  let last = (addr + (meta lsr 3) - 1) lsr t.block_shift in
  for block = first to last do
    ignore (access_block t ~kind ~source ~block)
  done

let sink t (b : Memsim.Event.Batch.t) =
  let addrs = b.Memsim.Event.Batch.addrs and metas = b.Memsim.Event.Batch.metas in
  for i = 0 to b.Memsim.Event.Batch.len - 1 do
    access_packed t ~addr:(Array.unsafe_get addrs i)
      ~meta:(Array.unsafe_get metas i)
  done

let contains_block t ~block =
  let set = block land (t.num_sets - 1) in
  let base = set * t.assoc in
  let rec find i =
    i < t.assoc && (t.tags.(base + i) = block || find (i + 1))
  in
  find 0

let flush t =
  (* Flushing writes dirty blocks back. *)
  Array.iteri
    (fun i d -> if d && t.tags.(i) >= 0 then Stats.record_writeback t.stats)
    t.dirty;
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Policy.State.reset t.policy
let reset_stats t = t.stats <- Stats.create ()
