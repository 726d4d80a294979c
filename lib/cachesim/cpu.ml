(* Modern CPU cache-hierarchy presets, 2008-2017.

   Shapes, replacement policies and latencies follow the publicly
   documented / reverse-engineered values for Intel's client parts
   (Abel & Reineke's nanoBench-style policy identifications; vendor
   optimisation manuals for sizes and load-to-use latencies):

   - L1 data caches are 32 KB 8-way tree-PLRU throughout the range.
   - L2 is 256 KB 8-way tree-PLRU up to Haswell; Skylake's L2 drops to
     4-way with a QLRU variant that rejuvenates hits to age 0.
   - L3 is inclusive, 16-way, tree-PLRU on Nehalem/Sandy Bridge and
     QLRU (hits to age 1) from Haswell on.  Sizes are the common
     quad-core client configurations, rounded to powers of two as
     {!Config} requires (8 MB; 16 MB for the 8-core Coffee Lake).

   Latencies are load-to-use cycle counts; [mem_latency] is the cost of
   missing the last level.  The cycle model is the paper's, extended
   per level: a miss at level i stalls for the hit latency of level
   i+1, a last-level miss stalls for [mem_latency] (see
   {!miss_penalties}). *)

type level = { config : Config.t; hit_latency : int }

type t = {
  key : string;
  label : string;
  year : int;
  levels : level list;  (* outermost (L1) first *)
  mem_latency : int;
}

let kb k = k * 1024
let mb m = m * 1024 * 1024

let cache ?policy ~assoc size =
  Config.make ~block_bytes:64 ~associativity:assoc ?policy size

let nehalem =
  { key = "nehalem";
    label = "Nehalem (2008)";
    year = 2008;
    levels =
      [ { config = cache ~policy:Plru ~assoc:8 (kb 32); hit_latency = 4 };
        { config = cache ~policy:Plru ~assoc:8 (kb 256); hit_latency = 10 };
        { config = cache ~policy:Plru ~assoc:16 (mb 8); hit_latency = 40 } ];
    mem_latency = 200 }

let sandybridge =
  { key = "sandybridge";
    label = "Sandy Bridge (2011)";
    year = 2011;
    levels =
      [ { config = cache ~policy:Plru ~assoc:8 (kb 32); hit_latency = 4 };
        { config = cache ~policy:Plru ~assoc:8 (kb 256); hit_latency = 12 };
        { config = cache ~policy:Plru ~assoc:16 (mb 8); hit_latency = 30 } ];
    mem_latency = 200 }

let haswell =
  { key = "haswell";
    label = "Haswell (2013)";
    year = 2013;
    levels =
      [ { config = cache ~policy:Plru ~assoc:8 (kb 32); hit_latency = 4 };
        { config = cache ~policy:Plru ~assoc:8 (kb 256); hit_latency = 12 };
        { config = cache ~policy:(Qlru Policy.qlru_h11_m1) ~assoc:16 (mb 8);
          hit_latency = 36 } ];
    mem_latency = 230 }

let skylake =
  { key = "skylake";
    label = "Skylake (2015)";
    year = 2015;
    levels =
      [ { config = cache ~policy:Plru ~assoc:8 (kb 32); hit_latency = 4 };
        { config = cache ~policy:(Qlru Policy.qlru_h00_m1) ~assoc:4 (kb 256);
          hit_latency = 12 };
        { config = cache ~policy:(Qlru Policy.qlru_h11_m1) ~assoc:16 (mb 8);
          hit_latency = 42 } ];
    mem_latency = 240 }

let coffeelake =
  { key = "coffeelake";
    label = "Coffee Lake (2017)";
    year = 2017;
    levels =
      [ { config = cache ~policy:Plru ~assoc:8 (kb 32); hit_latency = 4 };
        { config = cache ~policy:(Qlru Policy.qlru_h00_m1) ~assoc:4 (kb 256);
          hit_latency = 12 };
        { config = cache ~policy:(Qlru Policy.qlru_h11_m1) ~assoc:16 (mb 16);
          hit_latency = 44 } ];
    mem_latency = 260 }

let all = [ nehalem; sandybridge; haswell; skylake; coffeelake ]
let keys () = List.map (fun c -> c.key) all

let find key =
  match List.find_opt (fun c -> c.key = key) all with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "Cachesim.Cpu.find: unknown CPU %S (known: %s)" key
           (String.concat ", " (keys ())))

let hierarchy cpus =
  Hierarchy.create
    (List.map (fun t -> List.map (fun l -> l.config) t.levels) cpus)

let miss_penalties t =
  (* A miss at level i pays the hit latency of level i+1; the last
     level pays main memory. *)
  let n = List.length t.levels in
  let lats = Array.of_list (List.map (fun l -> l.hit_latency) t.levels) in
  Array.init n (fun i -> if i = n - 1 then t.mem_latency else lats.(i + 1))

let stall_cycles t levels =
  (* fold_left2 rejects a level count that is not the preset's. *)
  List.fold_left2
    (fun acc (s : Stats.t) penalty -> acc + (s.misses * penalty))
    0 levels
    (Array.to_list (miss_penalties t))

let total_cycles t levels ~instructions =
  (* The paper's execution-time model, per-level: one cycle per
     instruction plus memory stalls. *)
  instructions + stall_cycles t levels

let pp ppf t =
  Format.fprintf ppf "%s: %s, mem %d cycles" t.key
    (String.concat " / "
       (List.map
          (fun l ->
            Printf.sprintf "%s @ %d cyc" l.config.Config.name l.hit_latency)
          t.levels))
    t.mem_latency
