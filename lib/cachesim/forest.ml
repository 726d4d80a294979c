(* One-pass simulation of a family of caches that share a block size
   (Hill & Smith's forest simulation, specialised to power-of-two
   caches — the shape of the paper's TYCHO size sweep).

   Two properties of the family make a single walk per reference
   sufficient:

   Inclusion.  Every member sees the identical reference stream, and a
   direct-mapped set holds exactly the most recently referenced block
   mapping to it.  With power-of-two set counts, each set of a larger
   member partitions a set of a smaller member, so the most recent
   block of a small set is also the most recent block of its sub-set in
   every larger member: residence in a smaller cache implies residence
   in every larger one.  Probing direct-mapped members from smallest to
   largest can therefore stop at the first hit — all later members hit
   too, without being probed — and equally, every member below the
   boundary missed.

   Shared profile.  Because the streams are identical, the access-side
   statistics (total/read/write/per-source access counts) are the same
   number for every member, and a cold miss — first-ever reference to a
   block — happens in all members at once (nothing can hit a block that
   was never referenced).  One profile record and one [seen] table
   therefore replace the per-cache copies; members privately accumulate
   only what differs: misses by kind and source, and writebacks.

   Set-associative members do not order by inclusion against the
   direct-mapped chain (same capacity at different set counts is the
   classic counterexample), so they are probed individually — but they
   still share the family profile and cold table.  Their LRU state is a
   last-use stamp per way, fed by the family's access tick: the
   eviction victim (least stamp, untouched ways stamped 0 and hence
   filled first) is exactly the block an MRU-first list would drop, so
   statistics stay bit-identical to an independent {!Cache}.

   Counter layout.  The kind x source access/miss breakdown lives in
   6-cell arrays indexed [ki*3 + si] (ki: 0 read / 1 write; si: 0 app /
   1 malloc / 2 free), so classifying a block touch is a single
   read-modify-write; totals and marginals are summed when a
   {!Stats.t} snapshot is materialised. *)

type member = {
  config : Config.t;
  assoc : int;
  (* tags.((set * assoc) + way) holds the resident block; -1 = invalid. *)
  tags : int array;
  (* dirty.(i) mirrors tags.(i): written since fetched (write-back). *)
  dirty : bool array;
  (* stamps.(i) mirrors tags.(i): family tick at last touch.  Empty for
     direct-mapped members, which need no recency order. *)
  stamps : int array;
  set_mask : int;  (* num_sets - 1 *)
  miss : int array;  (* misses by [ki*3 + si] *)
  mutable writebacks : int;
  (* Where the family's last probed block resides in this member
     (absolute way index), for the consecutive-repeat fast path. *)
  mutable last_way : int;
}

type t = {
  members : member array;  (* creation order *)
  dm : member array;  (* direct-mapped, ascending number of sets *)
  sa : member array;  (* set-associative, creation order *)
  block_shift : int;
  (* Set-range sharding (see {!create}'s [?shard]): this instance owns a
     block iff [lo <= block land part_mask < hi].  [part_mask] is the
     smallest member's set mask, so every member's sets partition
     cleanly across shards: blocks of one set always land in one shard,
     which keeps per-set LRU order, evictions and cold misses identical
     to the sequential walk.  Unsharded instances own everything
     (mask = 0, range [0, 1)). *)
  part_mask : int;
  part_lo : int;
  part_hi : int;
  seen : (int, unit) Hashtbl.t;  (* blocks ever referenced, shared *)
  mutable ticks : int;  (* probed block accesses; doubles as the LRU clock *)
  acc : int array;  (* accesses by [ki*3 + si], identical for members *)
  mutable cold_misses : int;
  (* Consecutive-repeat fast path: word-grain traces touch the same
     block many times in a row, and a repeat of the immediately
     preceding block necessarily hits every member (nothing else has
     been touched since it was installed family-wide), so it only needs
     an access count — plus, for the run's first write, marking the
     resident ways dirty.  Skipping the stamp refresh is safe: within a
     run no other block of any set is touched, so the relative recency
     order inside every set is unchanged. *)
  mutable last_block : int;
  mutable run_dirty : bool;  (* last_block already marked dirty *)
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?shard configs =
  (match shard with
  | None -> ()
  | Some (i, n) ->
      if n < 1 || i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf "Cachesim.Forest.create: bad shard (%d, %d)" i n));
  (match configs with
  | [] -> invalid_arg "Cachesim.Forest.create: no configurations"
  | first :: rest ->
      List.iter
        (fun (c : Config.t) ->
          if c.block_bytes <> first.Config.block_bytes then
            invalid_arg
              (Printf.sprintf
                 "Cachesim.Forest.create: %s has block size %d, family uses %d"
                 c.name c.block_bytes first.Config.block_bytes);
          (* The one-pass walk leans on LRU inclusion (stamp victims ==
             MRU-list victims); other policies must go through {!Cache}. *)
          if not (Policy.is_lru c.policy) then
            invalid_arg
              (Printf.sprintf
                 "Cachesim.Forest.create: %s uses policy %s; forest \
                  simulation supports lru only"
                 c.name
                 (Policy.to_string c.policy)))
        (first :: rest));
  let member config =
    let num_sets = Config.num_sets config in
    let assoc = config.Config.associativity in
    let ways = num_sets * assoc in
    { config;
      assoc;
      tags = Array.make ways (-1);
      dirty = Array.make ways false;
      stamps = (if assoc = 1 then [||] else Array.make ways 0);
      set_mask = num_sets - 1;
      miss = Array.make 6 0;
      writebacks = 0;
      last_way = 0 }
  in
  let members = Array.of_list (List.map member configs) in
  let dm =
    Array.of_list
      (List.filter (fun m -> m.assoc = 1) (Array.to_list members))
  in
  Array.stable_sort (fun a b -> compare a.set_mask b.set_mask) dm;
  let sa =
    Array.of_list
      (List.filter (fun m -> m.assoc > 1) (Array.to_list members))
  in
  let part_mask, part_lo, part_hi =
    match shard with
    | None -> (0, 0, 1)
    | Some (i, n) ->
        (* Partition on the smallest member's set index: its mask bits
           are the low bits of every member's mask (all are 2^k - 1), so
           a contiguous range of small-member set indices is a union of
           whole sets in every member. *)
        let mask =
          Array.fold_left (fun acc m -> min acc m.set_mask) max_int members
        in
        let groups = mask + 1 in
        (mask, groups * i / n, groups * (i + 1) / n)
  in
  { members;
    dm;
    sa;
    block_shift = log2 (List.hd configs).Config.block_bytes;
    part_mask;
    part_lo;
    part_hi;
    seen = Hashtbl.create 4096;
    ticks = 0;
    acc = Array.make 6 0;
    cold_misses = 0;
    last_block = -1;
    run_dirty = false }

let block_bytes t = 1 lsl t.block_shift
let size t = Array.length t.members

(* First write of a repeat run: mark the resident copies of
   [t.last_block] dirty in every member (idempotent — the block may
   already be dirty somewhere from before the run). *)
let mark_run_dirty t =
  let block = t.last_block in
  let dm = t.dm in
  for i = 0 to Array.length dm - 1 do
    let m = Array.unsafe_get dm i in
    Array.unsafe_set m.dirty (block land m.set_mask) true
  done;
  let sa = t.sa in
  for j = 0 to Array.length sa - 1 do
    let m = Array.unsafe_get sa j in
    Array.unsafe_set m.dirty m.last_way true
  done;
  t.run_dirty <- true

(* The hot path: [ks] is the fused kind/source counter index
   [ki*3 + si], resolved once per event.  Returns how many members
   missed. *)
let rec access_block_ks t ~ks ~block =
  let p = block land t.part_mask in
  if p < t.part_lo || p >= t.part_hi then 0  (* another shard's block *)
  else if block = t.last_block then begin
    (* Consecutive repeat: hits every member by construction. *)
    Array.unsafe_set t.acc ks (Array.unsafe_get t.acc ks + 1);
    if ks >= 3 && not t.run_dirty then mark_run_dirty t;
    0
  end
  else probe_block_ks t ~ks ~block

and probe_block_ks t ~ks ~block =
  let tick = t.ticks + 1 in
  t.ticks <- tick;
  Array.unsafe_set t.acc ks (Array.unsafe_get t.acc ks + 1);
  let write = ks >= 3 in
  let dm = t.dm in
  let dn = Array.length dm in
  (* Boundary: probe-order index of the smallest direct-mapped member
     that hits; by inclusion everything at or above it hits, everything
     below missed. *)
  let rec boundary i =
    if i >= dn then i
    else
      let m = Array.unsafe_get dm i in
      if Array.unsafe_get m.tags (block land m.set_mask) = block then i
      else boundary (i + 1)
  in
  let b = boundary 0 in
  if b > 0 then
    for i = 0 to b - 1 do
      let m = Array.unsafe_get dm i in
      let s = block land m.set_mask in
      if m.tags.(s) >= 0 && m.dirty.(s) then m.writebacks <- m.writebacks + 1;
      m.tags.(s) <- block;
      m.dirty.(s) <- write;
      Array.unsafe_set m.miss ks (Array.unsafe_get m.miss ks + 1)
    done;
  if write then
    (* Write hits only mark the resident block dirty. *)
    for i = b to dn - 1 do
      let m = Array.unsafe_get dm i in
      m.dirty.(block land m.set_mask) <- true
    done;
  (* Set-associative members: no inclusion order, probe each. *)
  let sa = t.sa in
  let sn = Array.length sa in
  let rec probe_sa j missed =
    if j >= sn then missed
    else begin
      let m = Array.unsafe_get sa j in
      let assoc = m.assoc in
      let base = (block land m.set_mask) * assoc in
      let rec find w =
        if w >= assoc then -1
        else if Array.unsafe_get m.tags (base + w) = block then w
        else find (w + 1)
      in
      let w = find 0 in
      if w >= 0 then begin
        m.last_way <- base + w;
        Array.unsafe_set m.stamps (base + w) tick;
        if write then Array.unsafe_set m.dirty (base + w) true;
        probe_sa (j + 1) missed
      end
      else begin
        (* Victim: least last-use stamp.  Untouched ways keep stamp 0
           and so fill before any valid way is evicted; once the set is
           full the least stamp is exactly the LRU block. *)
        let rec victim k best besti =
          if k >= base + assoc then besti
          else
            let s = Array.unsafe_get m.stamps k in
            if s < best then victim (k + 1) s k else victim (k + 1) best besti
        in
        let v = victim (base + 1) (Array.unsafe_get m.stamps base) base in
        m.last_way <- v;
        if Array.unsafe_get m.tags v >= 0 && Array.unsafe_get m.dirty v then
          m.writebacks <- m.writebacks + 1;
        Array.unsafe_set m.tags v block;
        Array.unsafe_set m.dirty v write;
        Array.unsafe_set m.stamps v tick;
        Array.unsafe_set m.miss ks (Array.unsafe_get m.miss ks + 1);
        probe_sa (j + 1) (missed + 1)
      end
    end
  in
  let missed = probe_sa 0 b in
  (* A cold (first-ever) reference misses in every member at once; a
     family-wide hit proves the block was already seen, so the table is
     only consulted when someone missed. *)
  if missed > 0 && not (Hashtbl.mem t.seen block) then begin
    Hashtbl.replace t.seen block ();
    t.cold_misses <- t.cold_misses + 1
  end;
  t.last_block <- block;
  t.run_dirty <- write;
  missed

let kind_index (kind : Memsim.Event.kind) =
  match kind with Read -> 0 | Write -> 1

let source_index (source : Memsim.Event.source) =
  match source with App -> 0 | Malloc -> 1 | Free -> 2

let ks_index ~kind ~source = (kind_index kind * 3) + source_index source

let access_block t ~kind ~source ~block =
  access_block_ks t ~ks:(ks_index ~kind ~source) ~block

let access_range_ks t ~ks ~addr ~size =
  let first = addr lsr t.block_shift in
  let last = (addr + size - 1) lsr t.block_shift in
  for block = first to last do
    ignore (access_block_ks t ~ks ~block)
  done

(* The sink: ks, addr and size all come straight out of the two packed
   ints — no Event.t is materialised. *)
let sink t (b : Memsim.Event.Batch.t) =
  let addrs = b.Memsim.Event.Batch.addrs and metas = b.Memsim.Event.Batch.metas in
  for i = 0 to b.Memsim.Event.Batch.len - 1 do
    let meta = Array.unsafe_get metas i in
    access_range_ks t
      ~ks:(Memsim.Event.Packed.ks meta)
      ~addr:(Array.unsafe_get addrs i)
      ~size:(meta lsr 3)
  done

let absorb t other =
  (* Merge another shard's counters into ours.  Only statistics move:
     tags/stamps stay per-shard (their sets are disjoint by
     construction, so there is nothing to reconcile). *)
  if Array.length t.members <> Array.length other.members then
    invalid_arg "Cachesim.Forest.absorb: member count mismatch";
  for c = 0 to 5 do
    t.acc.(c) <- t.acc.(c) + other.acc.(c)
  done;
  t.cold_misses <- t.cold_misses + other.cold_misses;
  Array.iteri
    (fun i m ->
      let o = other.members.(i) in
      if m.config <> o.config then
        invalid_arg "Cachesim.Forest.absorb: member config mismatch";
      for c = 0 to 5 do
        m.miss.(c) <- m.miss.(c) + o.miss.(c)
      done;
      m.writebacks <- m.writebacks + o.writebacks)
    t.members

(* Marginals of the fused [ki*3 + si] layout.  Cells: 0 = read/app,
   1 = read/malloc, 2 = read/free, 3 = write/app, 4 = write/malloc,
   5 = write/free. *)
let reads c = c.(0) + c.(1) + c.(2)
let writes c = c.(3) + c.(4) + c.(5)

let member_stats t i =
  let m = t.members.(i) in
  let s = Stats.create () in
  let acc = t.acc and miss = m.miss in
  s.Stats.accesses <- reads acc + writes acc;
  s.Stats.misses <- reads miss + writes miss;
  s.Stats.read_accesses <- reads acc;
  s.Stats.read_misses <- reads miss;
  s.Stats.write_accesses <- writes acc;
  s.Stats.write_misses <- writes miss;
  s.Stats.cold_misses <- t.cold_misses;
  s.Stats.writebacks <- m.writebacks;
  s.Stats.app_accesses <- acc.(0) + acc.(3);
  s.Stats.app_misses <- miss.(0) + miss.(3);
  s.Stats.malloc_accesses <- acc.(1) + acc.(4);
  s.Stats.malloc_misses <- miss.(1) + miss.(4);
  s.Stats.free_accesses <- acc.(2) + acc.(5);
  s.Stats.free_misses <- miss.(2) + miss.(5);
  s

let member_config t i = t.members.(i).config

let results t =
  List.init (Array.length t.members) (fun i ->
      (t.members.(i).config, member_stats t i))

let miss_rate_series t =
  results t
  |> List.map (fun ((cfg : Config.t), st) -> (cfg.name, Stats.miss_rate_pct st))
