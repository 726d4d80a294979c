(* An N-level cache hierarchy: every reference probes level 0; each
   level sees only the miss stream of the level above, as in the
   paper's two-level runs (Mogul & Borg) and the modern L1/L2/L3
   presets of {!Cpu}.

   An LRU level is a single-member {!Forest} family: the member code
   path (inline probe, array counters, cold table consulted only on a
   miss) is shared with the multi-configuration sweep, and a one-member
   family's statistics are exactly an independent cache's.  Non-LRU
   levels (Tree-PLRU, QLRU, ...) fall outside the forest's inclusion
   argument and run as plain {!Cache} simulations instead — the two
   agree bit-for-bit on LRU, which keeps the original two-level results
   byte-identical. *)

type sim = Forest_sim of Forest.t | Cache_sim of Cache.t

type level = {
  config : Config.t;
  sim : sim;
  shift : int;  (* log2 of the level's block size *)
}

type t = { levels : level array }

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create_levels configs =
  if configs = [] then invalid_arg "Cachesim.Hierarchy.create_levels: no levels";
  let level (config : Config.t) =
    { config;
      sim =
        (if Policy.is_lru config.policy then Forest_sim (Forest.create [ config ])
         else Cache_sim (Cache.create config));
      shift = log2 config.block_bytes }
  in
  { levels = Array.of_list (List.map level configs) }

(* Probe one level with a block index already translated to its block
   size; true = miss. *)
let probe level ~kind ~source ~ks ~block =
  match level.sim with
  | Forest_sim f -> Forest.access_block_ks f ~ks ~block > 0
  | Cache_sim c -> Cache.access_block c ~kind ~source ~block

let access_parts t ~kind ~source ~ks ~addr ~size =
  let top = t.levels.(0) in
  let n = Array.length t.levels in
  let first = addr lsr top.shift in
  let last = (addr + size - 1) lsr top.shift in
  for block = first to last do
    if probe top ~kind ~source ~ks ~block then begin
      (* Propagate down the miss path, translating the level-0 block to
         each level's (possibly larger) block, until some level hits. *)
      let base = block lsl top.shift in
      let i = ref 1 in
      let missing = ref true in
      while !missing && !i < n do
        let level = t.levels.(!i) in
        missing := probe level ~kind ~source ~ks ~block:(base lsr level.shift);
        incr i
      done
    end
  done

let sink t (b : Memsim.Event.Batch.t) =
  let addrs = b.Memsim.Event.Batch.addrs and metas = b.Memsim.Event.Batch.metas in
  for i = 0 to b.Memsim.Event.Batch.len - 1 do
    let meta = Array.unsafe_get metas i in
    access_parts t
      ~kind:(Memsim.Event.Packed.kind meta)
      ~source:(Memsim.Event.Packed.source meta)
      ~ks:(Memsim.Event.Packed.ks meta)
      ~addr:(Array.unsafe_get addrs i)
      ~size:(meta lsr 3)
  done

let level_stats t i =
  match t.levels.(i).sim with
  | Forest_sim f -> Forest.member_stats f 0
  | Cache_sim c -> Cache.stats c

let results t =
  Array.to_list t.levels
  |> List.mapi (fun i level -> (level.config, level_stats t i))
