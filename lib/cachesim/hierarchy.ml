(* Cache hierarchies as a trie of shared levels: every reference probes
   the first level of each path; each level sees only the miss stream
   of the level above, as in the paper's two-level runs (Mogul & Borg)
   and the modern L1/L2/L3 presets of {!Cpu}.

   Several paths (say, five CPU presets) are one trie: two paths share
   a level when its config and its whole upstream path are equal, since
   such a level sees an identical miss stream.  Each distinct level is
   simulated once and its statistics are reported on every path through
   it.  One path is the plain N-level hierarchy (the grid's two-level
   paper hierarchy).

   A level is a one-member {!Forest} family, whatever its replacement
   policy: the member code path (inline probe, array counters, cold
   table consulted only on a miss) is shared with the
   multi-configuration sweep, and a one-member family's statistics are
   exactly an independent cache's. *)

type node = {
  config : Config.t;
  sim : Forest.t;
  shift : int;  (* log2 of the level's block size *)
  mutable below : node array;  (* the levels fed by this one's misses *)
}

type t = {
  roots : node array;
  paths : node list list;  (* per path, outermost first *)
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let level (config : Config.t) =
  { config;
    sim = Forest.create [ config ];
    shift = log2 config.block_bytes;
    below = [||] }

let check_path = function
  | [] -> invalid_arg "Cachesim.Hierarchy.create: a path has no levels"
  | first :: rest ->
      (* A miss probes the level below with the missed block's first
         address only, so a smaller block below would drop the rest of
         the missed block. *)
      ignore
        (List.fold_left
           (fun (up : Config.t) (c : Config.t) ->
             if c.block_bytes < up.block_bytes then
               invalid_arg
                 (Printf.sprintf
                    "Cachesim.Hierarchy.create: %s has %d-byte blocks, \
                     smaller than the %d-byte blocks of %s above it"
                    c.name c.block_bytes up.block_bytes up.name);
             c)
           first rest)

let create paths =
  if paths = [] then invalid_arg "Cachesim.Hierarchy.create: no paths";
  List.iter check_path paths;
  (* A level is keyed by its config and its whole upstream path: equal
     keys see identical miss streams, so they are one level. *)
  let levels = Hashtbl.create 16 and roots = ref [||] in
  let rec walk parent key = function
    | [] -> []
    | config :: rest ->
        let key = config :: key in
        let node =
          match Hashtbl.find_opt levels key with
          | Some node -> node
          | None ->
              let node = level config in
              Hashtbl.add levels key node;
              (match parent with
              | None -> roots := Array.append !roots [| node |]
              | Some up -> up.below <- Array.append up.below [| node |]);
              node
        in
        node :: walk (Some node) key rest
  in
  let paths = List.map (walk None []) paths in
  { roots = !roots; paths }

let create_levels configs = create [ configs ]

let distinct_levels t =
  let rec count nodes =
    Array.fold_left (fun n node -> n + 1 + count node.below) 0 nodes
  in
  count t.roots

(* Probe one level with a block index already translated to its block
   size; true = miss. *)
let probe node ~ks ~block = Forest.access_block_ks node.sim ~ks ~block > 0

(* A level missed the block at byte address [addr]: each level below
   probes the block holding [addr] in its own (equal or larger) block
   size, and passes its own misses further down. *)
let rec descend below ~ks ~addr =
  for i = 0 to Array.length below - 1 do
    let node = Array.unsafe_get below i in
    if probe node ~ks ~block:(addr lsr node.shift) then
      descend node.below ~ks ~addr
  done

(* The root probe stays inline; the trie is only walked on a miss. *)
let access_root root ~ks ~addr ~size =
  let shift = root.shift in
  let first = addr lsr shift in
  let last = (addr + size - 1) lsr shift in
  for block = first to last do
    if probe root ~ks ~block then
      descend root.below ~ks ~addr:(block lsl shift)
  done

let sink t (b : Memsim.Event.Batch.t) =
  let addrs = b.Memsim.Event.Batch.addrs and metas = b.Memsim.Event.Batch.metas in
  let roots = t.roots in
  for i = 0 to b.Memsim.Event.Batch.len - 1 do
    let meta = Array.unsafe_get metas i in
    let ks = Memsim.Event.Packed.ks meta and addr = Array.unsafe_get addrs i in
    for r = 0 to Array.length roots - 1 do
      access_root (Array.unsafe_get roots r) ~ks ~addr ~size:(meta lsr 3)
    done
  done

let reset t =
  let rec go nodes =
    Array.iter
      (fun node ->
        Forest.reset node.sim;
        go node.below)
      nodes
  in
  go t.roots

let results t =
  List.map
    (List.map (fun node -> (node.config, Forest.member_stats node.sim 0)))
    t.paths
