type t = {
  config : Config.t;
  (* tags.((set * assoc) + way) holds one word per way: the resident
     block index shifted left once, with the low bit set when the block
     has been written since it was fetched (write-back accounting); -1 =
     invalid.  Way positions are physical: replacement order lives in
     [policy], not in the array layout. *)
  tags : int array;
  num_sets : int;
  assoc : int;
  block_shift : int;  (* log2 block_bytes: block index = addr lsr shift *)
  seen : (int, unit) Hashtbl.t;  (* blocks ever referenced, for cold misses *)
  policy : Policy.State.t;  (* per-set replacement state (assoc > 1) *)
  stats : Stats.t;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create config =
  let num_sets = Config.num_sets config in
  let assoc = config.Config.associativity in
  { config;
    tags = Array.make (num_sets * assoc) (-1);
    num_sets;
    assoc;
    block_shift = log2 config.Config.block_bytes;
    seen = Hashtbl.create 4096;
    policy = Policy.State.create config.Config.policy ~num_sets ~assoc;
    stats = Stats.create () }

let config t = t.config
let stats t = t.stats

(* A way's word holds [block] (clean or dirty); the invalid word -1
   shifts to max_int, which no block index reaches. *)
let holds word block = word lsr 1 = block
let dirty word = word land 1 = 1

(* Evict whatever way word [i] holds (counting a writeback if it is
   dirty) and fill it with [block]. *)
let replace t i block ~write =
  let old = Array.unsafe_get t.tags i in
  if old >= 0 && dirty old then Stats.record_writeback t.stats;
  Array.unsafe_set t.tags i ((block lsl 1) lor Bool.to_int write)

(* Touch [block] in its set: return whether it missed.  Invalid ways
   fill leftmost-first; only a full set consults the policy for a
   victim (the contract the differential oracle shares).  A write marks
   the block dirty; evicting a dirty block counts a writeback. *)
let touch t block ~write =
  let set = block land (t.num_sets - 1) in
  let base = set * t.assoc in
  if t.assoc = 1 then
    (* Direct-mapped fast path: replacement is forced, no policy state. *)
    if holds (Array.unsafe_get t.tags base) block then begin
      if write then Array.unsafe_set t.tags base ((block lsl 1) lor 1);
      false
    end
    else begin
      replace t base block ~write;
      true
    end
  else begin
    let rec find i = if i >= t.assoc then -1
      else if holds (Array.unsafe_get t.tags (base + i)) block then i
      else find (i + 1)
    in
    let pos = find 0 in
    if pos >= 0 then begin
      Policy.State.hit t.policy ~set ~way:pos;
      if write then Array.unsafe_set t.tags (base + pos) ((block lsl 1) lor 1);
      false
    end
    else begin
      let rec first_invalid i =
        if i >= t.assoc then -1
        else if Array.unsafe_get t.tags (base + i) < 0 then i
        else first_invalid (i + 1)
      in
      let way =
        match first_invalid 0 with
        | -1 -> Policy.State.victim t.policy ~set
        | w -> w
      in
      replace t (base + way) block ~write;
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
    i < t.assoc && (holds t.tags.(base + i) block || find (i + 1))
  in
  find 0

let flush t =
  (* Flushing writes dirty blocks back. *)
  Array.iter
    (fun w -> if w >= 0 && dirty w then Stats.record_writeback t.stats)
    t.tags;
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Policy.State.reset t.policy
