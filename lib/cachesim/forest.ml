(* One-pass simulation of a family of caches that share a block size
   (Hill & Smith's forest simulation, specialised to power-of-two
   caches — the shape of the paper's TYCHO size sweep).  It is the
   simulator's only cache engine: a single cache is a one-member
   family.

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
   was never referenced).  One profile record and one cold table (the
   blocks ever referenced) therefore replace the per-cache copies;
   members privately accumulate only what differs: misses by kind and
   source, and writebacks.  A family fed only the misses of another
   with its block size (a hierarchy level below one) needs no table at
   all: a block's first touch misses upstream first, and is then the
   first touch here too, so the upstream family's count is its own.

   Set-associative members do not order by inclusion against the
   direct-mapped chain (same capacity at different set counts is the
   classic counterexample), so they are probed individually — but they
   still share the family profile and cold table.  An LRU member keeps
   each set's ways most-recent-first: a hit moves its way to the front,
   and a miss drops the last way (still invalid while the set has room)
   and puts the new block at the front, so it keeps no stamps and scans
   for no victim.  A PLRU or QLRU member keeps its ways in place and
   replaces by its own {!Policy.State}: a hit updates the policy; a miss
   fills the leftmost invalid way, or else the policy's victim.

   Tag storage follows occupancy.  A set's valid ways are always a
   prefix of it: PLRU and QLRU fills take the leftmost invalid way, an
   LRU miss inserts at the front and drops the last way, and only
   [invalidate] empties ways, all of them at once.  So a member stores
   [stride] ways per set, starting at one and doubling (up to its
   associativity) when a miss finds every stored way of its set valid;
   the ways it does not store are exactly the ones a dense layout would
   hold invalid, and a probe's scan stops at the first invalid way.  A
   member's tags are as large as its fullest set, not its capacity (an
   8 MB 16-way L3 fed a small trace keeps one or two words per set,
   not sixteen), and [reset] and [flush] keep the grown storage for the
   next trace.  A QLRU member's ages follow the same stride (its
   {!Policy.State.grow} is called with the member's).

   Counter layout.  The kind x source access/miss breakdown lives in
   6-cell arrays indexed [ki*3 + si] (ki: 0 read / 1 write; si: 0 app /
   1 malloc / 2 free), so classifying a block touch is a single
   read-modify-write; totals and marginals are summed when a
   {!Stats.t} snapshot is materialised. *)

type member = {
  config : Config.t;
  assoc : int;
  (* tags.((set * stride) + way) holds one word per stored way: the
     resident block index shifted left once, with the low bit set when
     the block has been written since it was fetched (write-back
     accounting).  An LRU member's ways are in recency order, most
     recent first; other members' are physical, replacement order
     living in [policy]. *)
  mutable tags : int array;
  policy : Policy.State.t option;  (* None: direct-mapped or LRU *)
  set_mask : int;  (* num_sets - 1 *)
  miss : int array;  (* misses by [ki*3 + si] *)
  mutable writebacks : int;
  (* Where the family's last probed block resides in this member
     (absolute way index), for the consecutive-repeat fast path. *)
  mutable last_way : int;
  (* Ways stored per set in [tags]: a power of two <= [assoc], always 1
     for a direct-mapped member. *)
  mutable stride : int;
}

(* An empty way: negative, as no block's tag word is, so it shifts
   right to max_int, which no block index reaches; and its dirty bit is
   clear, so evicting it writes nothing back. *)
let invalid = -2

let holds word block = word lsr 1 = block

type t = {
  members : member array;  (* creation order *)
  dm : member array;  (* direct-mapped, ascending number of sets *)
  sa : member array;  (* set-associative, creation order *)
  (* Set-associative members whose policy a repeated hit changes (see
     {!Policy.State.hit_after_fill_changes}). *)
  refresh : member array;
  block_shift : int;
  (* Set-range sharding (see {!create}'s [?shard]): this instance owns a
     block iff [lo <= block land part_mask < hi].  [part_mask] is the
     smallest member's set mask, so every member's sets partition
     cleanly across shards: blocks of one set always land in one shard,
     which keeps per-set replacement state, evictions and cold misses
     identical to the sequential walk.  Unsharded instances own
     everything (mask = 0, range [0, 1)). *)
  part_mask : int;
  part_lo : int;
  part_hi : int;
  cold : cold;
  acc : int array;  (* accesses by [ki*3 + si], identical for members *)
  mutable cold_misses : int;  (* counted only by an [Own] table *)
  (* Consecutive-repeat fast path: word-grain traces touch the same
     block many times in a row, and a repeat of the immediately
     preceding block necessarily hits every member (nothing else has
     been touched since it was installed family-wide), so it only needs
     an access count.  A run's first write marks the resident ways
     dirty, and its first repeat replays the hit on the [refresh]
     members; every other policy update is idempotent within a run,
     since no other block of any set is touched. *)
  mutable last_block : int;
  mutable run_dirty : bool;  (* last_block already marked dirty *)
  mutable run_hit : bool;  (* [refresh] members already saw the run hit *)
}

(* Where a family's cold misses are counted: in its own table of the
   blocks ever referenced (shared by its members), or by the family
   upstream of it whose misses are all it sees (see {!create}). *)
and cold = Own of Memsim.Addr.Index_set.t | Upstream of t

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?shard ?cold_of configs =
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
                 c.name c.block_bytes first.Config.block_bytes))
        rest;
      Option.iter
        (fun up ->
          if up.block_shift <> log2 first.Config.block_bytes then
            invalid_arg
              "Cachesim.Forest.create: cold_of has another block size")
        cold_of);
  let member config =
    let num_sets = Config.num_sets config in
    let assoc = config.Config.associativity in
    { config;
      assoc;
      tags = Array.make num_sets invalid;
      policy =
        (if assoc = 1 then None
         else Policy.State.create config.Config.policy ~num_sets ~assoc);
      set_mask = num_sets - 1;
      miss = Array.make 6 0;
      writebacks = 0;
      last_way = 0;
      stride = 1 }
  in
  let members = Array.of_list (List.map member configs) in
  let select p = Array.of_list (List.filter p (Array.to_list members)) in
  let dm = select (fun m -> m.assoc = 1) in
  Array.stable_sort (fun a b -> Int.compare a.set_mask b.set_mask) dm;
  let sa = select (fun m -> m.assoc > 1) in
  let refresh =
    select (fun m ->
        match m.policy with
        | Some p -> Policy.State.hit_after_fill_changes p
        | None -> false)
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
          Array.fold_left (fun acc m -> Int.min acc m.set_mask) max_int members
        in
        let groups = mask + 1 in
        (mask, groups * i / n, groups * (i + 1) / n)
  in
  { members;
    dm;
    sa;
    refresh;
    block_shift = log2 (List.hd configs).Config.block_bytes;
    part_mask;
    part_lo;
    part_hi;
    cold =
      (match cold_of with
      | Some { cold = Upstream owner; _ } -> Upstream owner
      | Some owner -> Upstream owner
      | None ->
          (* Small to start: the set grows as needed. *)
          Own (Memsim.Addr.Index_set.create 32));
    acc = Array.make 6 0;
    cold_misses = 0;
    last_block = -1;
    run_dirty = false;
    run_hit = true }

(* The first write or (with [refresh] members) the first repeat of a
   run: bring the resident copies of [t.last_block] up to date. *)
let finish_run t ~write =
  let block = t.last_block in
  if write && not t.run_dirty then begin
    (* Idempotent: the block may already be dirty from before the run. *)
    let dm = t.dm in
    for i = 0 to Array.length dm - 1 do
      let m = Array.unsafe_get dm i in
      let s = block land m.set_mask in
      m.tags.(s) <- m.tags.(s) lor 1
    done;
    let sa = t.sa in
    for j = 0 to Array.length sa - 1 do
      let m = Array.unsafe_get sa j in
      m.tags.(m.last_way) <- m.tags.(m.last_way) lor 1
    done;
    t.run_dirty <- true
  end;
  if not t.run_hit then begin
    Array.iter
      (fun m ->
        match m.policy with
        | Some p ->
            Policy.State.hit p ~set:(m.last_way / m.stride)
              ~way:(m.last_way land (m.stride - 1))
        | None -> ())
      t.refresh;
    t.run_hit <- true
  end

(* The probe helpers below are top-level and take everything they need
   as arguments, so the hot path allocates no closures. *)

(* The way of the set at [base], scanning from [w], that holds the
   block whose tag word without its dirty bit is [bw]; on a miss,
   [lnot f], where [f] is the fill target: the first invalid way, or
   [stride] when every stored way is valid.  Valid ways are a prefix,
   so no way after an invalid one holds the block, and one scan finds
   either.  One comparison per way covers both: a valid word differs
   from [bw] at most in its dirty bit, and an invalid word is negative
   while [bw] is not. *)
let rec find_way tags ~base ~stride ~bw w =
  if w >= stride then lnot w
  else
    let x = Array.unsafe_get tags (base + w) in
    if x lxor bw <= 1 then if x >= 0 then w else lnot w
    else find_way tags ~base ~stride ~bw (w + 1)

(* Doubles [m]'s stride: every set keeps its stored ways in place and
   gains as many invalid ones, and so does its policy state. *)
let grow m =
  let stride = m.stride in
  let wide = 2 * stride in
  let tags = Array.make ((m.set_mask + 1) * wide) invalid in
  for s = 0 to m.set_mask do
    Array.blit m.tags (s * stride) tags (s * wide) stride
  done;
  m.tags <- tags;
  m.stride <- wide;
  Option.iter Policy.State.grow m.policy

(* Probe-order index of the smallest direct-mapped member that hits;
   by inclusion everything at or above it hits, everything below
   missed. *)
let rec boundary dm ~block i =
  if i >= Array.length dm then i
  else
    let m = Array.unsafe_get dm i in
    if holds (Array.unsafe_get m.tags (block land m.set_mask)) block then i
    else boundary dm ~block (i + 1)

(* Shifts the ways from [base] to [last] down one, dropping [last],
   and puts [front] at [base]. *)
let[@inline] push_front (tags : int array) ~base ~last front =
  for i = last downto base + 1 do
    Array.unsafe_set tags i (Array.unsafe_get tags (i - 1))
  done;
  Array.unsafe_set tags base front

(* An LRU miss on [set], [w] being its first invalid way, or [stride]
   when every stored way is valid: grow the member if it is narrower
   than its associativity, so that way [w] is invalid, then drop way
   [w] (or the last way), writing it back if dirty, and put [word] at
   the front.  Out of line, so that [probe_lru]'s hit path is as short
   as it was with a dense layout. *)
let lru_miss m ~ks ~set ~word w =
  if w = m.stride && w < m.assoc then grow m;
  let stride = m.stride and tags = m.tags in
  let base = set * stride in
  let last = base + Int.min w (stride - 1) in
  m.last_way <- base;
  m.writebacks <- m.writebacks + (Array.unsafe_get tags last land 1);
  Array.unsafe_set m.miss ks (Array.unsafe_get m.miss ks + 1);
  push_front tags ~base ~last word

(* Touch [block] in an LRU member, whose sets are most-recent-first,
   [word] being its tag word (dirty bit set on a write); true on a
   miss.  A hit moves its way to the front. *)
let probe_lru m ~ks ~block ~word =
  let set = block land m.set_mask in
  let stride = m.stride and tags = m.tags in
  let base = set * stride in
  let w = find_way tags ~base ~stride ~bw:(word land -2) 0 in
  if w >= 0 then begin
    m.last_way <- base;
    push_front tags ~base ~last:(base + w)
      (Array.unsafe_get tags (base + w) lor (word land 1));
    false
  end
  else begin
    lru_miss m ~ks ~set ~word (lnot w);
    true
  end

(* Touch [block] in a PLRU or QLRU member: a hit updates the policy; a
   miss fills the first invalid way (growing the member if every stored
   way is valid and it is narrower than its associativity), or else the
   policy's victim. *)
let probe_policy m p ~ks ~block ~word =
  let set = block land m.set_mask in
  let stride = m.stride and tags = m.tags in
  let base = set * stride in
  let w = find_way tags ~base ~stride ~bw:(word land -2) 0 in
  if w >= 0 then begin
    let i = base + w in
    m.last_way <- i;
    Policy.State.hit p ~set ~way:w;
    Array.unsafe_set tags i (Array.unsafe_get tags i lor (word land 1));
    false
  end
  else begin
    let f = lnot w in
    let w =
      if f < stride then f
      else if f < m.assoc then begin
        grow m;
        f
      end
      else Policy.State.victim p ~set
    in
    let tags = m.tags in
    let i = (set * m.stride) + w in
    m.last_way <- i;
    m.writebacks <- m.writebacks + (Array.unsafe_get tags i land 1);
    Array.unsafe_set tags i word;
    Policy.State.fill p ~set ~way:w;
    Array.unsafe_set m.miss ks (Array.unsafe_get m.miss ks + 1);
    true
  end

let probe_sa m ~ks ~block ~word =
  match m.policy with
  | None -> probe_lru m ~ks ~block ~word
  | Some p -> probe_policy m p ~ks ~block ~word

(* A consecutive repeat of [t.last_block]: it hits every member by
   construction, so it only needs an access count. *)
let repeat t ~ks =
  Array.unsafe_set t.acc ks (Array.unsafe_get t.acc ks + 1);
  if (ks >= 3 && not t.run_dirty) || not t.run_hit then
    finish_run t ~write:(ks >= 3)

(* The hot path's miss side: [ks] is the fused kind/source counter
   index [ki*3 + si], resolved once per event.  Returns how many
   members missed. *)
let probe_block_ks t ~ks ~block =
  Array.unsafe_set t.acc ks (Array.unsafe_get t.acc ks + 1);
  let write = ks >= 3 in
  let word = (block lsl 1) lor Bool.to_int write in
  let dm = t.dm in
  let b = boundary dm ~block 0 in
  for i = 0 to b - 1 do
    let m = Array.unsafe_get dm i in
    let s = block land m.set_mask in
    m.writebacks <- m.writebacks + (Array.unsafe_get m.tags s land 1);
    Array.unsafe_set m.tags s word;
    Array.unsafe_set m.miss ks (Array.unsafe_get m.miss ks + 1)
  done;
  if write then
    (* Write hits only mark the resident block dirty. *)
    for i = b to Array.length dm - 1 do
      let m = Array.unsafe_get dm i in
      let s = block land m.set_mask in
      Array.unsafe_set m.tags s (Array.unsafe_get m.tags s lor 1)
    done;
  (* Set-associative members: no inclusion order, probe each. *)
  let missed = ref b in
  let sa = t.sa in
  for j = 0 to Array.length sa - 1 do
    if probe_sa (Array.unsafe_get sa j) ~ks ~block ~word then incr missed
  done;
  let missed = !missed in
  (* A cold (first-ever) reference misses in every member at once; a
     family-wide hit proves the block was already seen, so the table is
     only consulted when someone missed. *)
  if missed > 0 then begin
    match t.cold with
    | Own seen ->
        if Memsim.Addr.Index_set.add seen block then
          t.cold_misses <- t.cold_misses + 1
    | Upstream _ -> ()
  end;
  t.last_block <- block;
  t.run_dirty <- write;
  t.run_hit <- Array.length t.refresh = 0;
  missed

let access_block_ks t ~ks ~block =
  let p = block land t.part_mask in
  if p < t.part_lo || p >= t.part_hi then 0  (* another shard's block *)
  else if block = t.last_block then begin
    repeat t ~ks;
    0
  end
  else probe_block_ks t ~ks ~block

let access_range_ks t ~ks ~addr ~size =
  let first = addr lsr t.block_shift in
  let last = (addr + size - 1) lsr t.block_shift in
  for block = first to last do
    ignore (access_block_ks t ~ks ~block)
  done

(* One walk over the batch feeds every family, ascending by block size.
   An event that lies inside one block of the smallest family lies
   inside one block of every family, since each larger block contains
   that small one.  If that small block is the one the family touched
   last, the event is a consecutive repeat in every family: the
   previous event ended in it, so it is also each larger family's
   [last_block], and the event gets only each family's repeat update.
   Any other single-block event goes straight to each family's block
   access, and a longer event to its range walk; both take the repeat
   path on their own wherever it applies.  ks, addr and size all come
   straight out of the two packed ints — no Event.t is materialised. *)
let sink_families fs =
  let n = Array.length fs in
  if n = 0 then invalid_arg "Cachesim.Forest.sink_families: no families";
  Array.iteri
    (fun i f ->
      if i > 0 && f.block_shift <= fs.(i - 1).block_shift then
        invalid_arg "Cachesim.Forest.sink_families: block sizes must ascend";
      if n > 1 && f.part_hi - f.part_lo <= f.part_mask then
        invalid_arg "Cachesim.Forest.sink_families: a shard cannot share a walk")
    fs;
  let small = fs.(0) in
  let shift = small.block_shift in
  fun (b : Memsim.Event.Batch.t) ->
    let addrs = b.Memsim.Event.Batch.addrs
    and metas = b.Memsim.Event.Batch.metas in
    for i = 0 to b.Memsim.Event.Batch.len - 1 do
      let meta = Array.unsafe_get metas i
      and addr = Array.unsafe_get addrs i in
      let ks = Memsim.Event.Packed.ks meta and size = meta lsr 3 in
      let first = addr lsr shift in
      if (addr + size - 1) lsr shift <> first then
        for f = 0 to n - 1 do
          access_range_ks (Array.unsafe_get fs f) ~ks ~addr ~size
        done
      else if first = small.last_block then
        for f = 0 to n - 1 do
          repeat (Array.unsafe_get fs f) ~ks
        done
      else
        for f = 0 to n - 1 do
          let fam = Array.unsafe_get fs f in
          ignore (access_block_ks fam ~ks ~block:(addr lsr fam.block_shift))
        done
    done

let sink t = sink_families [| t |]

(* Every member emptied and its replacement state forgotten; the dirty
   blocks dropped are the caller's to count. *)
let invalidate t =
  Array.iter
    (fun m ->
      Array.fill m.tags 0 (Array.length m.tags) invalid;
      Option.iter Policy.State.reset m.policy)
    t.members;
  (* The last block is no longer resident: its next touch must probe. *)
  t.last_block <- -1

let flush t =
  (* Flushing writes dirty blocks back. *)
  Array.iter
    (fun m ->
      Array.iter (fun w -> m.writebacks <- m.writebacks + (w land 1)) m.tags)
    t.members;
  invalidate t

let reset t =
  invalidate t;
  Array.iter
    (fun m ->
      Array.fill m.miss 0 6 0;
      m.writebacks <- 0)
    t.members;
  Array.fill t.acc 0 6 0;
  t.cold_misses <- 0;
  (* [clear] keeps the set's room for the next trace. *)
  (match t.cold with
  | Own seen -> Memsim.Addr.Index_set.clear seen
  | Upstream _ -> ());
  t.run_dirty <- false;
  t.run_hit <- true

let absorb t other =
  (* Merge another shard's counters into ours.  Only statistics move:
     tags and policy state stay per-shard (their sets are disjoint by
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
  s.Stats.cold_misses <-
    (match t.cold with Own _ -> t.cold_misses | Upstream u -> u.cold_misses);
  s.Stats.writebacks <- m.writebacks;
  s.Stats.app_accesses <- acc.(0) + acc.(3);
  s.Stats.app_misses <- miss.(0) + miss.(3);
  s.Stats.malloc_accesses <- acc.(1) + acc.(4);
  s.Stats.malloc_misses <- miss.(1) + miss.(4);
  s.Stats.free_accesses <- acc.(2) + acc.(5);
  s.Stats.free_misses <- miss.(2) + miss.(5);
  s

let results t =
  List.init (Array.length t.members) (fun i ->
      (t.members.(i).config, member_stats t i))
