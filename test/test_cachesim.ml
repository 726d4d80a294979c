(* Tests for the cache simulator, including cross-validation against a
   naive reference model on random traces. *)

open Cachesim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let deliver = Testkit.Gen.deliver

(* One cache: a one-member forest, with a log of what it was fed so
   residency can be asked without disturbing it. *)
module One = struct
  type op = Events of Memsim.Event.t list | Flush

  type t = {
    config : Config.t;
    forest : Forest.t;
    mutable log : op list;  (* newest first *)
  }

  let create config = { config; forest = Forest.create [ config ]; log = [] }

  let apply f = function
    | Events events -> deliver (Forest.sink f) events
    | Flush -> Forest.flush f

  let run t op =
    t.log <- op :: t.log;
    apply t.forest op

  let stats t = Forest.member_stats t.forest 0

  (* Replays the log on a fresh cache and reads [block]'s first byte:
     the block is resident iff that read hits. *)
  let contains_block t ~block =
    let f = Forest.create [ t.config ] in
    List.iter (apply f) (List.rev t.log);
    let misses () = (Forest.member_stats f 0).Stats.misses in
    let before = misses () in
    apply f (Events [ Memsim.Event.read (block * t.config.block_bytes) 1 ]);
    misses () = before
end

let feed c events = One.run c (One.Events events)
let flush c = One.run c One.Flush
let stats = One.stats

(* Naive substring check, for asserting on error-message contents. *)
let contains_substring ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Config                                                             *)
(* ------------------------------------------------------------------ *)

let test_config_defaults () =
  let c = Config.make (16 * 1024) in
  Alcotest.(check string) "derived name" "16K-dm" c.Config.name;
  check_int "block" 32 c.Config.block_bytes;
  check_int "dm" 1 c.Config.associativity;
  check_int "sets" 512 (Config.num_sets c);
  check_int "blocks" 512 (Config.num_blocks c)

let test_config_assoc_name () =
  let c = Config.make ~associativity:2 (16 * 1024) in
  Alcotest.(check string) "derived name" "16K-2way" c.Config.name;
  check_int "sets halve" 256 (Config.num_sets c)

let test_config_rejects_bad () =
  (* The message must quote the offending value, not just reject: a
     bare "invalid config" from deep inside a sweep is undebuggable. *)
  let expect_invalid msg needles f =
    match f () with
    | exception Invalid_argument err ->
        List.iter
          (fun needle ->
            check_bool
              (Printf.sprintf "%s: message %S mentions %S" msg err needle)
              true
              (contains_substring ~needle err))
          needles
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "non-pow2 size" [ "size 10000"; "power of two" ] (fun () ->
      Config.make 10_000);
  expect_invalid "non-pow2 block" [ "block size 24"; "power of two" ]
    (fun () -> Config.make ~block_bytes:24 16384);
  expect_invalid "block > capacity" [ "block size 64"; "capacity 32" ]
    (fun () -> Config.make ~block_bytes:64 32);
  expect_invalid "assoc 3" [ "associativity 3" ] (fun () ->
      Config.make ~associativity:3 16384);
  expect_invalid "assoc > blocks" [ "associativity 8"; "4 blocks" ] (fun () ->
      Config.make ~block_bytes:32 ~associativity:8 128)

let test_config_policy_names () =
  let c = Config.make ~associativity:8 ~policy:Policy.Plru (16 * 1024) in
  Alcotest.(check string) "plru in derived name" "16K-8way-plru" c.Config.name;
  let q =
    Config.make ~associativity:4 ~policy:(Policy.Qlru Policy.qlru_h11_m1)
      (32 * 1024)
  in
  Alcotest.(check string) "qlru in derived name" "32K-4way-qlru-h1-m1"
    q.Config.name;
  (* LRU keeps the paper-era label. *)
  let l = Config.make ~associativity:2 ~policy:Policy.Lru (16 * 1024) in
  Alcotest.(check string) "lru stays implicit" "16K-2way" l.Config.name

let test_policy_string_roundtrip () =
  let policies =
    [ Policy.Lru; Policy.Plru; Policy.Qlru Policy.qlru_h00_m1;
      Policy.Qlru Policy.qlru_h11_m1; Policy.Qlru Policy.qlru_h00_m0 ]
  in
  List.iter
    (fun p ->
      match Policy.of_string (Policy.to_string p) with
      | Ok p' ->
          check_bool (Policy.to_string p ^ " round-trips") true
            (Policy.equal p p')
      | Error e -> Alcotest.failf "%s: %s" (Policy.to_string p) e)
    policies;
  List.iter
    (fun token ->
      check_bool (token ^ " rejected") true
        (match Policy.of_string token with Error _ -> true | Ok _ -> false))
    [ "nmru"; "fifo"; "mru"; "random:42"; "qlru-h4-m1" ]

(* PLRU keeps a set's tree in one int, which holds 63 node bits: a
   wider tree would shift past them and mis-simulate silently. *)
let test_config_rejects_wide_plru () =
  (match Config.make ~associativity:128 ~policy:Policy.Plru (128 * 32) with
  | exception Invalid_argument msg ->
      check_bool "message names the config" true
        (contains_substring ~needle:"4K-128way-plru" msg);
      check_bool "message names the limit" true
        (contains_substring ~needle:"64" msg)
  | _ -> Alcotest.fail "expected Invalid_argument for a 128-way PLRU");
  check_int "64-way PLRU accepted" 64
    (Config.make ~associativity:64 ~policy:Policy.Plru (64 * 32))
      .Config.associativity;
  List.iter
    (fun policy ->
      check_int
        (Policy.to_string policy ^ " has no way limit")
        128
        (Config.make ~associativity:128 ~policy (128 * 32)).Config.associativity)
    [ Policy.Lru; Policy.Qlru Policy.qlru_h00_m1 ]

let test_config_paper_sweep () =
  let names = List.map (fun c -> c.Config.name) Config.paper_direct_mapped in
  Alcotest.(check (list string)) "sweep"
    [ "16K-dm"; "32K-dm"; "64K-dm"; "128K-dm"; "256K-dm" ]
    names

(* ------------------------------------------------------------------ *)
(* One cache: hand-worked direct-mapped scenarios                     *)
(* ------------------------------------------------------------------ *)

(* A tiny cache: 4 sets of 32-byte blocks = 128 bytes, direct-mapped. *)
let tiny_dm () = One.create (Config.make ~block_bytes:32 128)

let read_at cache addr = feed cache [ Memsim.Event.read addr 4 ]

let test_dm_hit_after_miss () =
  let c = tiny_dm () in
  read_at c 0x1000;
  read_at c 0x1004;
  (* same block *)
  let s = stats c in
  check_int "two accesses" 2 s.Stats.accesses;
  check_int "one miss" 1 s.Stats.misses;
  check_int "one cold miss" 1 s.Stats.cold_misses

let test_dm_conflict_eviction () =
  let c = tiny_dm () in
  (* Blocks 0 and 4 map to set 0 in a 4-set cache. *)
  read_at c 0;
  read_at c (4 * 32);
  read_at c 0;
  (* evicted by previous access -> miss again, but not cold *)
  let s = stats c in
  check_int "three accesses" 3 s.Stats.accesses;
  check_int "three misses" 3 s.Stats.misses;
  check_int "two cold" 2 s.Stats.cold_misses

let test_dm_distinct_sets_coexist () =
  let c = tiny_dm () in
  read_at c 0;
  read_at c 32;
  read_at c 64;
  read_at c 96;
  read_at c 0;
  read_at c 32;
  let s = stats c in
  check_int "4 cold misses then hits" 4 s.Stats.misses

let test_event_spanning_blocks () =
  let c = tiny_dm () in
  (* A 64-byte write starting at 16 spans blocks 0, 1, 2. *)
  feed c [ Memsim.Event.write 16 64 ];
  let s = stats c in
  check_int "three block accesses" 3 s.Stats.accesses;
  check_int "all write accesses" 3 s.Stats.write_accesses;
  check_int "three misses" 3 s.Stats.misses

let test_source_breakdown () =
  let c = tiny_dm () in
  feed c
    [ Memsim.Event.read ~source:Memsim.Event.Malloc 0 4;
      Memsim.Event.read ~source:Memsim.Event.App 0 4;
      Memsim.Event.write ~source:Memsim.Event.Free 0 4 ];
  let s = stats c in
  check_int "malloc accesses" 1 s.Stats.malloc_accesses;
  check_int "malloc misses" 1 s.Stats.malloc_misses;
  check_int "app hits" 0 s.Stats.app_misses;
  check_int "free accesses" 1 s.Stats.free_accesses;
  Alcotest.(check (float 1e-9))
    "source miss rate" 0.
    (Stats.source_miss_rate s Memsim.Event.App)

let test_flush () =
  let c = tiny_dm () in
  read_at c 0x40;
  check_bool "resident" true (One.contains_block c ~block:2);
  flush c;
  check_bool "flushed" false (One.contains_block c ~block:2);
  read_at c 0x40;
  let s = stats c in
  check_int "second access misses after flush" 2 s.Stats.misses;
  check_int "but is not cold" 1 s.Stats.cold_misses

(* ------------------------------------------------------------------ *)
(* Write-back accounting                                              *)
(* ------------------------------------------------------------------ *)

(* 2 sets x 2 ways x 32B = 128 bytes. *)
let tiny_2way () =
  One.create (Config.make ~block_bytes:32 ~associativity:2 128)

let write_at cache addr = feed cache [ Memsim.Event.write addr 4 ]

let test_wb_dirty_eviction () =
  let c = tiny_dm () in
  write_at c 0;
  (* dirty block 0 in set 0 *)
  read_at c (4 * 32);
  (* evicts it -> one writeback *)
  check_int "one writeback" 1 (stats c).Stats.writebacks

let test_wb_clean_eviction_free () =
  let c = tiny_dm () in
  read_at c 0;
  read_at c (4 * 32);
  check_int "clean eviction, no writeback" 0 (stats c).Stats.writebacks

let test_wb_flush_writes_dirty () =
  let c = tiny_dm () in
  write_at c 0;
  write_at c 32;
  read_at c 64;
  flush c;
  (* two dirty + one clean block flushed *)
  check_int "two writebacks on flush" 2 (stats c).Stats.writebacks;
  flush c;
  check_int "second flush writes nothing" 2 (stats c).Stats.writebacks

let test_wb_read_after_write_keeps_dirty () =
  let c = tiny_dm () in
  write_at c 0;
  read_at c 0;
  (* still dirty *)
  read_at c (4 * 32);
  check_int "writeback after read hit" 1 (stats c).Stats.writebacks

let test_wb_assoc_dirty_follows_lru () =
  let c = tiny_2way () in
  write_at c (0 * 32);
  read_at c (2 * 32);
  read_at c (0 * 32);
  (* 0 is MRU and dirty; 2 clean LRU *)
  read_at c (4 * 32);
  (* evicts clean 2 *)
  check_int "clean victim, no writeback" 0 (stats c).Stats.writebacks;
  read_at c (6 * 32);
  (* evicts dirty 0 *)
  check_int "dirty victim written back" 1 (stats c).Stats.writebacks;
  check_int "memory traffic = misses + writebacks"
    ((stats c).Stats.misses + 1)
    (Stats.memory_traffic_blocks (stats c))

let prop_writebacks_bounded =
  QCheck.Test.make ~name:"writebacks never exceed writes" ~count:200
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 300)
        (pair bool (int_range 0 1023)))
    (fun ops ->
      let c = One.create (Config.make ~block_bytes:32 256) in
      feed c
        (List.map
           (fun (w, addr) ->
             if w then Memsim.Event.write addr 4 else Memsim.Event.read addr 4)
           ops);
      flush c;
      let s = stats c in
      s.Stats.writebacks <= s.Stats.write_accesses)

(* ------------------------------------------------------------------ *)
(* One cache: associativity                                           *)
(* ------------------------------------------------------------------ *)

let test_assoc_two_blocks_coexist () =
  let c = tiny_2way () in
  (* Blocks 0 and 2 both map to set 0; with 2 ways they coexist. *)
  read_at c (0 * 32);
  read_at c (2 * 32);
  read_at c (0 * 32);
  read_at c (2 * 32);
  let s = stats c in
  check_int "only the two cold misses" 2 s.Stats.misses

let test_assoc_lru_eviction_order () =
  let c = tiny_2way () in
  (* Set 0 receives blocks 0, 2, then 4: 0 is LRU and must be evicted. *)
  read_at c (0 * 32);
  read_at c (2 * 32);
  read_at c (4 * 32);
  check_bool "block 0 evicted" false (One.contains_block c ~block:0);
  check_bool "block 2 stays" true (One.contains_block c ~block:2);
  check_bool "block 4 resident" true (One.contains_block c ~block:4)

let test_assoc_touch_refreshes_lru () =
  let c = tiny_2way () in
  read_at c (0 * 32);
  read_at c (2 * 32);
  read_at c (0 * 32);
  (* refresh 0: now 2 is LRU *)
  read_at c (4 * 32);
  check_bool "block 2 evicted" false (One.contains_block c ~block:2);
  check_bool "block 0 survives" true (One.contains_block c ~block:0)

(* ------------------------------------------------------------------ *)
(* Reference model cross-validation                                   *)
(* ------------------------------------------------------------------ *)

(* Obviously-correct set-associative LRU: per-set list of blocks in
   MRU-first order. *)
module Ref_model = struct
  type t = {
    num_sets : int;
    assoc : int;
    mutable sets : int list array;
    mutable misses : int;
    mutable accesses : int;
  }

  let create (cfg : Config.t) =
    { num_sets = Config.num_sets cfg;
      assoc = cfg.associativity;
      sets = Array.make (Config.num_sets cfg) [];
      misses = 0;
      accesses = 0 }

  let access t block =
    t.accesses <- t.accesses + 1;
    let set = block mod t.num_sets in
    let resident = t.sets.(set) in
    let hit = List.mem block resident in
    if not hit then t.misses <- t.misses + 1;
    let without = List.filter (fun b -> b <> block) resident in
    let updated = block :: without in
    let truncated =
      if List.length updated > t.assoc then
        List.filteri (fun i _ -> i < t.assoc) updated
      else updated
    in
    t.sets.(set) <- truncated
end

(* The word-trace generator lives in the shared testkit now; every
   suite that wants "random addresses over a small window" draws from
   the same distribution. *)
let trace_arb = Testkit.Gen.trace_arb

let cross_validate cfg trace =
  let cache = One.create cfg in
  let model = Ref_model.create cfg in
  feed cache
    (List.map (fun (addr, size) -> Memsim.Event.read addr size) trace);
  List.iter
    (fun (addr, size) ->
      let bb = cfg.Config.block_bytes in
      for block = addr / bb to (addr + size - 1) / bb do
        Ref_model.access model block
      done)
    trace;
  let s = stats cache in
  s.Stats.accesses = model.Ref_model.accesses
  && s.Stats.misses = model.Ref_model.misses

let prop_dm_matches_model =
  QCheck.Test.make ~name:"direct-mapped matches reference model" ~count:200
    trace_arb
    (cross_validate (Config.make ~block_bytes:32 512))

let prop_2way_matches_model =
  QCheck.Test.make ~name:"2-way matches reference model" ~count:200 trace_arb
    (cross_validate (Config.make ~block_bytes:32 ~associativity:2 512))

let prop_4way_matches_model =
  QCheck.Test.make ~name:"4-way matches reference model" ~count:200 trace_arb
    (cross_validate (Config.make ~block_bytes:16 ~associativity:4 256))

let prop_fully_assoc_matches_model =
  QCheck.Test.make ~name:"fully-associative matches reference model"
    ~count:100 trace_arb
    (cross_validate (Config.make ~block_bytes:32 ~associativity:8 256))

let prop_assoc_monotone =
  (* For a fixed capacity, LRU set-associative misses are not generally
     monotone in associativity (Belady), but a fully-associative LRU cache
     never misses more than total distinct-block count bound; we check a
     weaker sane property: misses <= accesses and hits+misses=accesses. *)
  QCheck.Test.make ~name:"stats are internally consistent" ~count:200
    trace_arb (fun trace ->
      let cfg = Config.make ~block_bytes:32 256 in
      let cache = One.create cfg in
      feed cache
        (List.map (fun (addr, size) -> Memsim.Event.read addr size) trace);
      let s = stats cache in
      s.Stats.misses <= s.Stats.accesses
      && Stats.hits s + s.Stats.misses = s.Stats.accesses
      && s.Stats.cold_misses <= s.Stats.misses
      && s.Stats.read_accesses + s.Stats.write_accesses = s.Stats.accesses)

(* ------------------------------------------------------------------ *)
(* Multi                                                              *)
(* ------------------------------------------------------------------ *)

let test_multi_broadcast () =
  let m = Multi.create Config.paper_direct_mapped in
  let sink = Multi.sink m in
  for i = 0 to 99 do
    deliver sink [ Memsim.Event.read (i * 64) 4 ]
  done;
  List.iter
    (fun (_, s) -> check_int "each cache saw all accesses" 100 s.Stats.accesses)
    (Multi.results m)

let test_multi_bigger_cache_fewer_misses () =
  let m = Multi.create Config.paper_direct_mapped in
  let sink = Multi.sink m in
  (* Working set of 1024 blocks cycled repeatedly: small caches thrash,
     the 256K cache (8192 blocks) holds everything. *)
  for _pass = 1 to 5 do
    for b = 0 to 1023 do
      deliver sink [ Memsim.Event.read (b * 32) 4 ]
    done
  done;
  let rates =
    List.map (fun (_, st) -> Stats.miss_rate_pct st) (Multi.results m)
  in
  let rec non_increasing = function
    | a :: b :: rest -> a >= b -. 1e-9 && non_increasing (b :: rest)
    | _ -> true
  in
  check_bool "miss rate non-increasing in cache size" true
    (non_increasing rates);
  let largest = List.nth rates (List.length rates - 1) in
  check_bool "largest cache only cold misses" true (largest < 25.)

let test_multi_find () =
  (* Results are looked up by display name. *)
  let results = Multi.results (Multi.create Config.paper_direct_mapped) in
  let find name =
    List.find_opt (fun ((c : Config.t), _) -> c.name = name) results
  in
  (match find "64K-dm" with
  | Some (cfg, _) ->
      check_int "found the right size" (64 * 1024) cfg.Config.size_bytes
  | None -> Alcotest.fail "64K-dm missing from the results");
  check_bool "an unknown name is absent" true (find "nope" = None);
  check_bool "every configuration is listed" true
    (find "16K-dm" <> None && find "256K-dm" <> None)

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                          *)
(* ------------------------------------------------------------------ *)

let two_level () =
  Hierarchy.create
    [ [ Config.make ~block_bytes:32 128; Config.make ~block_bytes:32 4096 ] ]

(* The statistics of a one-path hierarchy, outermost level first. *)
let path_stats h =
  match Hierarchy.results h with
  | [ path ] -> List.map snd path
  | paths -> Alcotest.failf "expected one path, got %d" (List.length paths)

let level h i = List.nth (path_stats h) i

(* A preset over [h]'s levels whose per-level miss penalties are
   [penalties]: a miss at level i pays level i+1's hit latency and the
   last level pays memory, so the latencies are the penalties shifted
   down one level. *)
let cpu_with_penalties h penalties =
  let n = List.length penalties in
  { Cpu.key = "test";
    label = "test";
    year = 0;
    levels =
      List.mapi
        (fun i (config, _) ->
          { Cpu.config;
            hit_latency = (if i = 0 then 1 else List.nth penalties (i - 1)) })
        (List.hd (Hierarchy.results h));
    mem_latency = List.nth penalties (n - 1) }

let stall_cycles h penalties =
  Cpu.stall_cycles
    (cpu_with_penalties h penalties)
    (path_stats h)

let test_hierarchy_l2_sees_only_l1_misses () =
  let h = two_level () in
  let sink = Hierarchy.sink h in
  (* Touch block 0 three times: one L1 miss, then hits. *)
  for _ = 1 to 3 do
    deliver sink [ Memsim.Event.read 0 4 ]
  done;
  check_int "L1 sees 3" 3 (level h 0).Stats.accesses;
  check_int "L1 misses once" 1 (level h 0).Stats.misses;
  check_int "L2 sees only the miss" 1 (level h 1).Stats.accesses

let test_hierarchy_stall_cycles () =
  let h = two_level () in
  let sink = Hierarchy.sink h in
  deliver sink [ Memsim.Event.read 0 4 ];
  (* one L1 miss + one L2 miss *)
  check_int "stalls = 10 + 100" 110 (stall_cycles h [ 10; 100 ])

let test_hierarchy_l2_filters () =
  let h = two_level () in
  let sink = Hierarchy.sink h in
  (* Cycle 8 blocks > L1 capacity (4 blocks) but < L2 capacity: L1
     thrashes, L2 only cold-misses. *)
  for _pass = 1 to 10 do
    for b = 0 to 7 do
      deliver sink [ Memsim.Event.read (b * 32) 4 ]
    done
  done;
  let l1 = level h 0 and l2 = level h 1 in
  check_int "L1 thrashes every access" 80 l1.Stats.misses;
  check_int "L2 only cold misses" 8 l2.Stats.misses

(* ------------------------------------------------------------------ *)
(* Forest                                                             *)
(* ------------------------------------------------------------------ *)

(* The forest's contract is exact equality with independently simulated
   caches — every Stats.t field, not just hit/miss totals. *)
let stats_testable = Alcotest.testable Stats.pp (fun (a : Stats.t) b -> a = b)

(* Deterministic mixed read/write stream: multi-block spanning sizes,
   all three sources, addresses wide enough to force evictions. *)
let lcg_stream n =
  let state = ref 123456789 in
  let next m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  List.init n (fun _ ->
      let addr = next 65536 in
      let size = 1 + next 70 in
      let source =
        match next 3 with
        | 0 -> Memsim.Event.App
        | 1 -> Memsim.Event.Malloc
        | _ -> Memsim.Event.Free
      in
      if next 2 = 0 then Memsim.Event.read ~source addr size
      else Memsim.Event.write ~source addr size)

(* Each configuration simulated on its own by the naive oracle, one
   boxed event at a time. *)
let oracle_stats configs events =
  List.map
    (fun cfg ->
      let o = Testkit.Oracle.create cfg in
      List.iter (Testkit.Oracle.access o) events;
      Testkit.Oracle.stats o)
    configs

(* [results] lists [configs] in creation order, each with exactly its
   oracle's statistics. *)
let matches_oracles configs events results =
  List.length results = List.length configs
  && List.for_all2 ( == ) configs (List.map fst results)
  && List.map snd results = oracle_stats configs events

let check_oracles configs events results =
  check_int "one result per configuration" (List.length configs)
    (List.length results);
  List.iter2
    (fun (cfg : Config.t) ((cfg', stats), expected) ->
      check_bool (cfg.name ^ " in creation order") true (cfg == cfg');
      Alcotest.check stats_testable cfg.name expected stats)
    configs
    (List.combine results (oracle_stats configs events))

let test_forest_equivalence () =
  (* The production family shape: the paper's direct-mapped sweep plus
     the 16K associativity set, one shared 32-byte block size, and a
     PLRU and a QLRU member beside them. *)
  let configs =
    Config.paper_direct_mapped
    @ List.map
        (fun a -> Config.make ~associativity:a (16 * 1024))
        [ 2; 4; 8 ]
    @ [ Config.make ~associativity:8 ~policy:Policy.Plru (16 * 1024);
        Config.make ~associativity:4 ~policy:(Policy.Qlru Policy.qlru_h00_m1)
          (16 * 1024) ]
  in
  let forest = Forest.create configs in
  let stream = lcg_stream 6000 in
  deliver (Forest.sink forest) stream;
  check_oracles configs stream (Forest.results forest)

let test_forest_batched_multi_equivalence () =
  (* The production pipeline shape: several families fed packed batches
     (odd grain, so batch edges land mid-stream), against independent
     caches fed event by event. *)
  let configs =
    Config.paper_direct_mapped
    @ [ Config.make ~associativity:4 (16 * 1024);
        Config.make ~name:"64K-b16" ~block_bytes:16 (64 * 1024);
        Config.make ~name:"64K-b128" ~block_bytes:128 (64 * 1024);
        Config.make ~name:"32K-b64-plru" ~block_bytes:64 ~associativity:8
          ~policy:Policy.Plru (32 * 1024) ]
  in
  let multi = Multi.create configs in
  let stream = lcg_stream 6000 in
  deliver ~grain:7 (Multi.sink multi) stream;
  check_oracles configs stream (Multi.results multi)

let test_forest_create_rejects () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "empty family" (fun () -> Forest.create []);
  expect_invalid "mixed block sizes" (fun () ->
      Forest.create [ Config.make 256; Config.make ~block_bytes:16 256 ])

(* A flush empties every member, so re-touching the block touched last
   must miss, although the consecutive-repeat fast path counts a repeat
   of the last block as a hit everywhere. *)
let test_forest_flush_retouch () =
  let forest =
    Forest.create
      [ Config.make 256;
        Config.make ~associativity:2 ~policy:Policy.Plru 256;
        Config.make ~associativity:4 ~policy:(Policy.Qlru Policy.qlru_h00_m1)
          256 ]
  in
  deliver (Forest.sink forest) [ Memsim.Event.write 64 4 ];
  Forest.flush forest;
  deliver (Forest.sink forest) [ Memsim.Event.write 64 4 ];
  List.iter
    (fun ((cfg : Config.t), (s : Stats.t)) ->
      check_int (cfg.name ^ ": both touches miss") 2 s.misses;
      check_int (cfg.name ^ ": only the first is cold") 1 s.cold_misses;
      check_int (cfg.name ^ ": the flush wrote the block back") 1 s.writebacks)
    (Forest.results forest)

(* A member stores as many ways per set as its fullest set holds.  An
   8 MB 16-way member fed one block per set keeps about one tag word per
   set, where dense storage would take 131,072; 17 blocks in one set
   grow it to full width, still equal to the oracle; and a reset keeps
   the grown storage yet reports what a fresh family does. *)
let test_forest_storage_follows_occupancy () =
  let l3 =
    Config.make ~name:"8M-16way" ~block_bytes:64 ~associativity:16
      (8 * 1024 * 1024)
  in
  let sets = Config.num_sets l3 in
  check_int "8,192 sets" 8192 sets;
  let read block = Memsim.Event.read (block * 64) 8 in
  let one_per_set = List.init sets read in
  let one_set = List.init 17 (fun i -> read (i * sets)) in
  let major_words f =
    Gc.full_major ();
    let before = (Gc.quick_stat ()).Gc.major_words in
    let r = f () in
    (r, (Gc.quick_stat ()).Gc.major_words -. before)
  in
  let fed config () =
    let forest = Forest.create [ config ] in
    deliver (Forest.sink forest) one_per_set;
    forest
  in
  (* A direct-mapped family of the same sets allocates the same but for
     its tags, exactly one word per set. *)
  let _, dm_words = major_words (fed (Config.make ~block_bytes:64 (512 * 1024))) in
  let forest, l3_words = major_words (fed l3) in
  let tags = l3_words -. dm_words +. float_of_int sets in
  check_bool
    (Printf.sprintf "one block per set: %.0f tag words, fewer than %d" tags
       (2 * sets))
    true
    (tags < float_of_int (2 * sets));
  let (), grown =
    major_words (fun () -> deliver (Forest.sink forest) one_set)
  in
  check_bool
    (Printf.sprintf "17 blocks in one set: %.0f words, at least %d" grown
       (16 * sets))
    true
    (grown >= float_of_int (16 * sets));
  check_oracles [ l3 ] (one_per_set @ one_set) (Forest.results forest);
  (* Up to 40 blocks in each of three sets, every other touch a write:
     evictions and writebacks from the grown storage. *)
  let second =
    List.init 1000 (fun i ->
        let addr = (((i mod 40) * sets) + (i mod 3)) * 64 in
        if i land 1 = 1 then Memsim.Event.write addr 8
        else Memsim.Event.read addr 8)
  in
  Forest.reset forest;
  deliver (Forest.sink forest) second;
  let fresh = Forest.create [ l3 ] in
  deliver (Forest.sink fresh) second;
  Alcotest.check stats_testable "reset equals fresh"
    (Forest.member_stats fresh 0) (Forest.member_stats forest 0);
  check_oracles [ l3 ] second (Forest.results forest)

(* A family of one block size; members draw any policy, so families mix
   policies. *)
let family_gen =
  QCheck.Gen.(
    oneofl [ 16; 32 ] >>= fun bb ->
    let cfg =
      triple
        (oneofl [ 256; 512; 1024; 2048; 4096 ])
        (oneofl [ 1; 1; 2; 4 ])
        Testkit.Gen.policy_gen
      >|= fun (cap, assoc, policy) ->
      Config.make
        ~name:(Printf.sprintf "%d-%dway-%s" cap assoc (Policy.to_string policy))
        ~block_bytes:bb ~associativity:assoc ~policy cap
    in
    list_size (int_range 1 5) cfg)

let forest_case_gen = QCheck.Gen.pair family_gen (Testkit.Gen.events_gen ())

(* Configurations of mixed block sizes and policies, interleaved in
   creation order, so Multi must split them into several families. *)
let multi_configs_gen =
  QCheck.Gen.(
    let cfg =
      quad (oneofl [ 16; 32; 64 ])
        (oneofl [ 256; 512; 1024; 2048; 4096 ])
        (oneofl [ 1; 1; 2; 4 ])
        Testkit.Gen.policy_gen
      >|= fun (bb, cap, assoc, policy) ->
      Config.make
        ~name:
          (Printf.sprintf "%d-%dway-b%d-%s" cap assoc bb
             (Policy.to_string policy))
        ~block_bytes:bb ~associativity:assoc ~policy cap
    in
    list_size (int_range 1 6) cfg)

let multi_case_gen =
  QCheck.Gen.pair multi_configs_gen (Testkit.Gen.events_gen ())

let events_of_raw raw =
  List.map
    (fun ((write, src), (addr, size)) ->
      let source = Testkit.Gen.source_of_int src in
      if write then Memsim.Event.write ~source addr size
      else Memsim.Event.read ~source addr size)
    raw

(* The forest fed [events] at [grain] against each member simulated on
   its own by the oracle. *)
let forest_matches_oracles ~grain configs events =
  let forest = Forest.create configs in
  deliver ~grain (Forest.sink forest) events;
  matches_oracles configs events (Forest.results forest)

let prop_forest_matches_caches =
  QCheck.Test.make ~name:"forest matches independent caches" ~count:300
    (QCheck.make forest_case_gen)
    (fun (configs, events) -> forest_matches_oracles ~grain:1 configs events)

(* The forest and one oracle per member, fed [events] one at a time and
   all flushed before each event whose index is in [cuts] and once at
   the end, so every dirty line is written back on both sides. *)
let flushed_forest_matches_oracles configs events cuts =
  let forest = Forest.create configs in
  let oracles = List.map Testkit.Oracle.create configs in
  let flush () =
    Forest.flush forest;
    List.iter Testkit.Oracle.flush oracles
  in
  List.iteri
    (fun i e ->
      if List.mem i cuts then flush ();
      deliver (Forest.sink forest) [ e ];
      List.iter (fun o -> Testkit.Oracle.access o e) oracles)
    events;
  flush ();
  List.map snd (Forest.results forest) = List.map Testkit.Oracle.stats oracles

let cuts_gen = QCheck.Gen.(list_size (int_range 0 4) (int_bound 400))

let prop_forest_runs_and_flushes =
  (* Word-grain runs exercise the repeat fast path (a QLRU member whose
     hit and insert ages differ must still see a run's first repeat as
     a hit); flush cuts land inside runs. *)
  QCheck.Test.make ~name:"forest runs and flushes match oracle" ~count:300
    (QCheck.make
       QCheck.Gen.(triple family_gen (Testkit.Gen.run_events_gen ()) cuts_gen))
    (fun (configs, events, cuts) ->
      flushed_forest_matches_oracles configs events cuts)

(* LRU members keep each set most-recent-first.  Members of 2 to 64
   ways, always with one fully associative set among them, are pinned
   to the oracle's MRU tag lists on word-grain runs three quarters of
   whose events are writes.  Flush cuts write the dirty ways back on
   both sides; at a reset cut both sides must agree so far, then the
   family is reset and the oracles start afresh. *)
let lru_family_gen =
  QCheck.Gen.(
    list_size (int_range 0 4)
      (pair (oneofl [ 512; 1024; 2048 ]) (oneofl [ 2; 4; 8; 16; 32; 64 ]))
    >|= fun shapes ->
    let lru cap assoc =
      Config.make
        ~name:(Printf.sprintf "%d-%dway" cap assoc)
        ~block_bytes:16 ~associativity:assoc cap
    in
    lru 1024 64
    :: List.filter_map
         (fun (cap, assoc) ->
           if assoc <= cap / 16 then Some (lru cap assoc) else None)
         shapes)

let write_heavy_runs_gen =
  QCheck.Gen.(
    Testkit.Gen.run_events_gen () >>= fun events ->
    list_repeat (List.length events) (int_bound 3) >|= fun draws ->
    List.map2
      (fun (e : Memsim.Event.t) d ->
        if d = 0 then e else { e with kind = Memsim.Event.Write })
      events draws)

let prop_forest_lru_matches_oracle =
  QCheck.Test.make ~name:"lru members of 2 to 64 ways match oracle"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple lru_family_gen write_heavy_runs_gen
           (list_size (int_range 0 6) (pair (int_bound 400) bool))))
    (fun (configs, events, cuts) ->
      let forest = Forest.create configs in
      let oracles = ref (List.map Testkit.Oracle.create configs) in
      let summary (s : Stats.t) = (s.misses, s.cold_misses, s.writebacks) in
      let agree () =
        List.map (fun (_, s) -> summary s) (Forest.results forest)
        = List.map (fun o -> summary (Testkit.Oracle.stats o)) !oracles
      in
      let flush () =
        Forest.flush forest;
        List.iter Testkit.Oracle.flush !oracles
      in
      let ok = ref true in
      List.iteri
        (fun i e ->
          (match List.assoc_opt i cuts with
          | Some true -> flush ()
          | Some false ->
              ok := !ok && agree ();
              Forest.reset forest;
              oracles := List.map Testkit.Oracle.create configs
          | None -> ());
          deliver (Forest.sink forest) [ e ];
          List.iter (fun o -> Testkit.Oracle.access o e) !oracles)
        events;
      flush ();
      !ok && agree ())

(* [reset] returns a family to its just-created state: after trace [a]
   and a reset, trace [b] must give every member exactly what a fresh
   family fed only [b] reports, every Stats field included, and what
   its oracle reports.  [b] opens with [a]'s last event, so a reset
   that kept the repeat fast path's last block would count a hit. *)
let prop_forest_reset_is_fresh =
  QCheck.Test.make ~name:"reset forest equals a fresh one" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple family_gen (Testkit.Gen.run_events_gen ())
           (Testkit.Gen.run_events_gen ())))
    (fun (configs, a, b) ->
      let b = List.nth a (List.length a - 1) :: b in
      let reused = Forest.create configs and fresh = Forest.create configs in
      deliver ~grain:7 (Forest.sink reused) a;
      Forest.reset reused;
      deliver ~grain:7 (Forest.sink reused) b;
      deliver ~grain:7 (Forest.sink fresh) b;
      Forest.results reused = Forest.results fresh
      && matches_oracles configs b (Forest.results reused))

(* One path simulated on its own, naively: a chain of oracle caches,
   every block of a reference probing the first and each seeing only
   the blocks the one above missed, in its own block size. *)
let oracle_chain configs events =
  let chain = List.map Testkit.Oracle.create configs in
  let top = (List.hd configs).Config.block_bytes in
  List.iter
    (fun (e : Memsim.Event.t) ->
      for block = e.addr / top to (e.addr + e.size - 1) / top do
        let rec down = function
          | [] -> ()
          | o :: rest ->
              let bb = (Testkit.Oracle.config o).Config.block_bytes in
              if
                Testkit.Oracle.touch_block o ~kind:e.kind ~source:e.source
                  ~block:(block * top / bb)
              then down rest
        in
        down chain
      done)
    events;
  List.map Testkit.Oracle.stats chain

(* ------------------------------------------------------------------ *)
(* Packed deliveries against independent references                  *)
(* ------------------------------------------------------------------ *)

let prop_forest_packed_matches_boxed =
  (* Multi-event packed batches must land on exactly the per-member
     statistics of independent caches fed boxed events. *)
  QCheck.Test.make ~name:"forest packed batches equal boxed events"
    ~count:300
    (QCheck.make forest_case_gen)
    (fun (configs, events) -> forest_matches_oracles ~grain:7 configs events)

let prop_multi_packed_matches_boxed =
  (* The packed Multi sink must agree, configuration by configuration
     and in creation order, with independent caches fed boxed events. *)
  QCheck.Test.make ~name:"multi packed equals boxed" ~count:200
    (QCheck.make multi_case_gen)
    (fun (configs, events) ->
      let multi = Multi.create configs in
      deliver ~grain:13 (Multi.sink multi) events;
      matches_oracles configs events (Multi.results multi))

(* ---- the shared walk ------------------------------------------------ *)

(* One episode at [base] (a multiple of 128) for the walk's repeat
   gate, whose smallest family has 16-byte blocks.  A write spanning
   small blocks 6..8 of [base] ends inside block 8; the words after it
   lie in block 8, a repeat in every family; then an event starting in
   block 8 runs on into block 9, which is a repeat only for block sizes
   of 32 bytes and up; a word in block 8 again is a repeat for them
   too, but not for the 16-byte family. *)
let gate_episode base =
  let open Memsim.Event in
  [ write ~source:Malloc (base + 100) 40;
    read (base + 132) 4;
    write (base + 136) 4;
    read ~source:Free (base + 140) 4;
    write ~source:Malloc (base + 136) 24;
    read (base + 144) 4;
    read (base + 128) 4;
    write (base + 132) 4;
    read ~source:Free (base + 100) 4 ]

(* Bases a cache's size apart conflict in its sets, so episodes evict
   each other's (dirty) blocks. *)
let gate_stream =
  List.concat_map gate_episode [ 0; 512; 2048; 0; 128; 4096; 512; 0 ]

let test_walk_gate_edge () =
  (* Four families, created out of block-size order; each has
     direct-mapped members and set-associative PLRU and QLRU members,
     whose repeated hits replay on the policy. *)
  let configs =
    List.concat_map
      (fun bb ->
        let name fmt = Printf.sprintf fmt bb in
        [ Config.make ~name:(name "512-b%d") ~block_bytes:bb 512;
          Config.make ~name:(name "2K-b%d") ~block_bytes:bb 2048;
          Config.make ~name:(name "1K-2way-b%d-plru") ~block_bytes:bb
            ~associativity:2 ~policy:Policy.Plru 1024;
          Config.make ~name:(name "1K-4way-b%d-qlru") ~block_bytes:bb
            ~associativity:4 ~policy:(Policy.Qlru Policy.qlru_h00_m1) 1024 ])
      [ 64; 16; 128; 32 ]
  in
  List.iter
    (fun grain ->
      let multi = Multi.create configs in
      deliver ~grain (Multi.sink multi) gate_stream;
      check_oracles configs gate_stream (Multi.results multi))
    [ 1; 4; 1000 ]

let test_walk_one_family () =
  (* With one block size, Multi is its one Forest, and both are the
     oracles'. *)
  let configs =
    [ Config.make ~name:"512-b16" ~block_bytes:16 512;
      Config.make ~name:"8K-b16" ~block_bytes:16 (8 * 1024);
      Config.make ~name:"1K-4way-b16-plru" ~block_bytes:16 ~associativity:4
        ~policy:Policy.Plru 1024 ]
  in
  let multi = Multi.create configs and forest = Forest.create configs in
  let stream = lcg_stream 3000 @ gate_stream in
  deliver ~grain:7 (Multi.sink multi) stream;
  deliver ~grain:7 (Forest.sink forest) stream;
  check_oracles configs stream (Forest.results forest);
  List.iter2
    (fun ((cfg : Config.t), expected) (cfg', stats) ->
      check_bool (cfg.name ^ " in creation order") true (cfg == cfg');
      Alcotest.check stats_testable cfg.name expected stats)
    (Forest.results forest) (Multi.results multi)

let test_walk_rejects () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  let family ?shard bb = Forest.create ?shard [ Config.make ~block_bytes:bb 1024 ] in
  expect_invalid "no families" (fun () -> Forest.sink_families [||]);
  expect_invalid "descending block sizes" (fun () ->
      Forest.sink_families [| family 64; family 32 |]);
  expect_invalid "repeated block size" (fun () ->
      Forest.sink_families [| family 32; family 32 |]);
  expect_invalid "a shard beside another family" (fun () ->
      Forest.sink_families [| family ~shard:(0, 2) 32; family 64 |]);
  (* A lone shard walks alone; a one-shard split owns every block. *)
  let empty = Memsim.Event.Batch.create () in
  Forest.sink_families [| family ~shard:(1, 2) 32 |] empty;
  Forest.sink_families [| family ~shard:(0, 1) 32; family 64 |] empty

let prop_multi_runs_match_oracles =
  (* Word-grain runs across several families, so most events reach
     every family through the walk's repeat gate. *)
  QCheck.Test.make ~name:"multi word-grain runs match oracle" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple multi_configs_gen (Testkit.Gen.run_events_gen ())
           (int_range 1 16)))
    (fun (configs, events, grain) ->
      let multi = Multi.create configs in
      deliver ~grain (Multi.sink multi) events;
      matches_oracles configs events (Multi.results multi))

let test_hierarchy_packed_matches_boxed () =
  (* The boxed reference is a chain of oracle caches fed event by
     event: every block of a reference probes the first cache, and each
     cache sees only the blocks the one above missed. *)
  let levels =
    [ Config.make ~name:"L1" (8 * 1024);
      Config.make ~name:"L2" ~associativity:4 (64 * 1024) ]
  in
  let packed = Hierarchy.create [ levels ] in
  let stream = lcg_stream 6000 in
  deliver ~grain:11 (Hierarchy.sink packed) stream;
  List.iter2
    (fun expected (cfg, stats) ->
      Alcotest.check stats_testable cfg.Config.name expected stats)
    (oracle_chain levels stream)
    (List.hd (Hierarchy.results packed))

(* ------------------------------------------------------------------ *)
(* Shard: set-partitioned domain-parallel replay                      *)
(* ------------------------------------------------------------------ *)

let capture_trace events =
  let tb = Memsim.Trace_buffer.create ~chunk_capacity:512 () in
  deliver ~grain:256 (Memsim.Trace_buffer.sink tb) events;
  tb

let test_shard_identity () =
  (* The tentpole's proof obligation: set-partitioned sharding across
     real domains produces statistics identical to the sequential
     replay, for every domain count. *)
  let configs =
    Config.paper_direct_mapped
    @ List.map
        (fun a -> Config.make ~associativity:a (16 * 1024))
        [ 2; 4; 8 ]
  in
  let trace = capture_trace (lcg_stream 20000) in
  let sequential = Shard.replay ~domains:1 ~configs trace in
  List.iter
    (fun domains ->
      let sharded = Shard.replay ~domains ~configs trace in
      List.iter2
        (fun (cfg, a) (_, b) ->
          Alcotest.check stats_testable
            (Printf.sprintf "%s @ %d domains" cfg.Config.name domains)
            a b)
        sequential sharded)
    [ 2; 3; 8 ]

let prop_shard_matches_sequential =
  QCheck.Test.make ~name:"sharded replay equals sequential" ~count:60
    (QCheck.make
       QCheck.Gen.(pair forest_case_gen (int_range 2 4)))
    (fun ((configs, events), domains) ->
      let trace = capture_trace events in
      Shard.replay ~domains:1 ~configs trace
      = Shard.replay ~domains ~configs trace)

let test_shard_rejects () =
  let trace = capture_trace (lcg_stream 10) in
  match Shard.replay ~domains:0 ~configs:[ Config.make 256 ] trace with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for domains = 0"

(* ------------------------------------------------------------------ *)
(* Replacement policies                                               *)
(* ------------------------------------------------------------------ *)

(* Differential pinning: for every policy, a one-member forest must
   produce field-for-field identical Stats.t to the deliberately naive
   [Testkit.Oracle] over hundreds of random mixed read/write traces.
   The two share only the victim-side contract, never code. *)
let policy_differential name policy_gen =
  QCheck.Test.make ~count:250 ~name
    (QCheck.make (Testkit.Gen.policy_case_gen ~policy_gen))
    (fun (cfg, events) -> forest_matches_oracles ~grain:7 [ cfg ] events)

let prop_lru_matches_oracle =
  policy_differential "lru matches oracle" QCheck.Gen.(return Policy.Lru)

let prop_plru_matches_oracle =
  policy_differential "plru matches oracle" QCheck.Gen.(return Policy.Plru)

let prop_qlru_h00_m1_matches_oracle =
  policy_differential "qlru-h0-m1 matches oracle"
    QCheck.Gen.(return (Policy.Qlru Policy.qlru_h00_m1))

let prop_qlru_h11_m1_matches_oracle =
  policy_differential "qlru-h1-m1 matches oracle"
    QCheck.Gen.(return (Policy.Qlru Policy.qlru_h11_m1))

let prop_qlru_h00_m0_matches_oracle =
  policy_differential "qlru-h0-m0 matches oracle"
    QCheck.Gen.(return (Policy.Qlru Policy.qlru_h00_m0))

let prop_qlru_any_matches_oracle =
  (* The whole quad-age parameter square, not just the named presets. *)
  policy_differential "qlru (any ages) matches oracle"
    QCheck.Gen.(
      pair (int_bound 3) (int_bound 3) >|= fun (h, m) ->
      Policy.Qlru { Policy.hit_age = h; insert_age = m })

(* Writebacks and flushes through the one-word-per-way storage: random
   traces cut by context-switch flushes, then a final flush, so every
   dirty line is written back on both sides. *)
let policy_flush_differential name policy_gen =
  QCheck.Test.make ~count:250 ~name
    (QCheck.make
       QCheck.Gen.(pair (Testkit.Gen.policy_case_gen ~policy_gen) cuts_gen))
    (fun ((cfg, events), cuts) ->
      flushed_forest_matches_oracles [ cfg ] events cuts)

let prop_plru_flush_matches_oracle =
  policy_flush_differential "plru writebacks and flushes match oracle"
    QCheck.Gen.(return Policy.Plru)

let prop_qlru_flush_matches_oracle =
  policy_flush_differential "qlru writebacks and flushes match oracle"
    QCheck.Gen.(
      pair (int_bound 3) (int_bound 3) >|= fun (h, m) ->
      Policy.Qlru { Policy.hit_age = h; insert_age = m })

(* Hand-computed victim sequences.  One set of four 32-byte ways
   (fully-associative 128-byte cache): block [b] lives at address
   [b * 32], ways fill left-to-right with blocks 0,1,2,3. *)
let policy_cache policy =
  One.create (Config.make ~block_bytes:32 ~associativity:4 ~policy 128)

let read_block c b = feed c [ Memsim.Event.read (b * 32) 4 ]
let write_block c b = feed c [ Memsim.Event.write (b * 32) 4 ]

let check_resident c name expected =
  List.iter
    (fun b ->
      check_bool
        (Printf.sprintf "%s: block %d resident" name b)
        true
        (One.contains_block c ~block:b))
    expected;
  List.iter
    (fun b ->
      if not (List.mem b expected) then
        check_bool
          (Printf.sprintf "%s: block %d evicted" name b)
          false
          (One.contains_block c ~block:b))
    [ 0; 1; 2; 3; 4; 5; 6 ]

let test_lru_victim_sequence () =
  let c = policy_cache Policy.Lru in
  List.iter (read_block c) [ 0; 1; 2; 3 ];
  read_block c 0;
  (* refresh 0: block 1 is now least recent *)
  read_block c 4;
  check_resident c "lru" [ 0; 2; 3; 4 ]

let test_plru_victim_sequence () =
  let c = policy_cache Policy.Plru in
  List.iter (read_block c) [ 0; 1; 2; 3 ];
  (* Tree bits after the fills point at way 0; hitting way 1 flips the
     root toward the right half, so the victim walk lands on way 2. *)
  read_block c 1;
  read_block c 4;
  check_resident c "plru first victim" [ 0; 1; 3; 4 ];
  (* Filling way 2 pointed the root left again: way 0 is next. *)
  read_block c 5;
  check_resident c "plru second victim" [ 1; 3; 4; 5 ]

let test_qlru_h11_m1_victim_sequence () =
  let c = policy_cache (Policy.Qlru Policy.qlru_h11_m1) in
  List.iter (read_block c) [ 0; 1; 2; 3 ];
  (* All ages 1; the victim scan ages everyone to 3 (persistently) and
     takes the leftmost, way 0. *)
  read_block c 4;
  check_resident c "qlru-h1-m1 first victim" [ 1; 2; 3; 4 ];
  (* Hit block 1 -> age 1.  Ways now aged (4:1, 1:1, 2:3, 3:3): the
     leftmost age-3 way holds block 2, then block 3. *)
  read_block c 1;
  read_block c 5;
  check_resident c "qlru-h1-m1 second victim" [ 1; 3; 4; 5 ];
  read_block c 6;
  check_resident c "qlru-h1-m1 third victim" [ 1; 4; 5; 6 ]

let test_qlru_h00_m1_victim_sequence () =
  let c = policy_cache (Policy.Qlru Policy.qlru_h00_m1) in
  List.iter (read_block c) [ 0; 1; 2; 3 ];
  (* Hit block 0 -> age 0 (h=0 protects it); ageing to find a victim
     adds 2 to everyone, so ways age to (0:2, 1:3, 2:3, 3:3) and the
     leftmost age-3 way holds block 1. *)
  read_block c 0;
  read_block c 4;
  check_resident c "qlru-h0-m1 protects the hit line" [ 0; 2; 3; 4 ]

let test_policy_flush_resets_state () =
  (* After a flush the recency state must restart from scratch: the
     victim sequence replays exactly as on a fresh cache. *)
  let play c = List.iter (read_block c) [ 0; 1; 2; 3; 1; 4; 5 ] in
  let a = policy_cache Policy.Plru in
  play a;
  flush a;
  let before = (stats a).Stats.misses in
  play a;
  let replayed = (stats a).Stats.misses - before in
  let fresh = policy_cache Policy.Plru in
  play fresh;
  check_int "same misses after flush as from scratch"
    (stats fresh).Stats.misses replayed;
  (* resident sets agree block for block *)
  List.iter
    (fun b ->
      check_bool
        (Printf.sprintf "block %d residency agrees" b)
        (One.contains_block fresh ~block:b)
        (One.contains_block a ~block:b))
    [ 0; 1; 2; 3; 4; 5; 6 ]

(* Write-back accounting through the policy victim path. *)

let test_wb_policy_dirty_on_write_hit () =
  (* A QLRU h1-m1 hit leaves a line filled at age 1 at age 1: recency
     untouched, but the line must turn dirty. *)
  let c = policy_cache (Policy.Qlru Policy.qlru_h11_m1) in
  List.iter (read_block c) [ 0; 1; 2; 3 ];
  write_block c 0;
  check_int "write hit costs no writeback" 0 (stats c).Stats.writebacks;
  read_block c 4;
  (* every way ages to 3; the leftmost, dirty block 0, is evicted *)
  check_int "dirty victim written back exactly once" 1
    (stats c).Stats.writebacks;
  read_block c 5;
  (* evicts block 1 — clean *)
  check_int "clean eviction adds no writeback" 1
    (stats c).Stats.writebacks

let test_wb_policy_writeback_counted_once () =
  let c = policy_cache Policy.Lru in
  write_block c 0;
  List.iter (read_block c) [ 1; 2; 3 ];
  read_block c 4;
  (* evicts dirty block 0, the least recently used *)
  check_int "one writeback at eviction" 1 (stats c).Stats.writebacks;
  flush c;
  (* every remaining line was filled by a read: nothing more to write *)
  check_int "flush adds nothing for clean lines" 1
    (stats c).Stats.writebacks

let test_wb_plru_dirty_follows_victim () =
  let c = policy_cache Policy.Plru in
  write_block c 0;
  List.iter (read_block c) [ 1; 2; 3 ];
  (* PLRU victim walk lands on way 0 (dirty block 0). *)
  read_block c 4;
  check_int "dirty PLRU victim written back" 1
    (stats c).Stats.writebacks;
  read_block c 1;
  read_block c 5;
  (* victim is way 2 (clean block 2) *)
  check_int "clean PLRU victim free" 1 (stats c).Stats.writebacks;
  check_resident c "plru dirty victim order" [ 1; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* N-level hierarchies and CPU presets                                *)
(* ------------------------------------------------------------------ *)

let three_level () =
  Hierarchy.create
    [ [ Config.make ~block_bytes:32 128;
        Config.make ~block_bytes:32 512;
        Config.make ~block_bytes:32 4096 ] ]

let test_hierarchy_three_level_filters () =
  let h = three_level () in
  let sink = Hierarchy.sink h in
  (* Cycle 8 blocks: more than L1's 4, within L2's 16 and L3's 128.
     L1 thrashes every pass; L2 and L3 cold-miss once per block. *)
  for _pass = 1 to 10 do
    for b = 0 to 7 do
      deliver sink [ Memsim.Event.read (b * 32) 4 ]
    done
  done;
  check_int "3 levels" 3 (List.length (path_stats h));
  let l1 = level h 0 and l2 = level h 1 and l3 = level h 2 in
  check_int "L1 sees everything" 80 l1.Stats.accesses;
  check_int "L1 thrashes" 80 l1.Stats.misses;
  check_int "L2 sees only L1 misses" 80 l2.Stats.accesses;
  check_int "L2 only cold misses" 8 l2.Stats.misses;
  check_int "L3 sees only L2 misses" 8 l3.Stats.accesses;
  check_int "L3 only cold misses" 8 l3.Stats.misses

let test_hierarchy_per_level_stalls () =
  let h = three_level () in
  deliver (Hierarchy.sink h) [ Memsim.Event.read 0 4 ];
  (* One access missing all three levels: pays the L2 access, the L3
     access, and main memory. *)
  check_int "stalls sum per-level penalties" 250 (stall_cycles h [ 10; 40; 200 ]);
  Alcotest.(check (array int))
    "penalties follow next-level latencies" [| 10; 40; 200 |]
    (Cpu.miss_penalties (cpu_with_penalties h [ 10; 40; 200 ]));
  (* Wrong arity is a caller bug, loudly. *)
  check_bool "level count checked" true
    (match
       Cpu.stall_cycles
         (cpu_with_penalties h [ 10; 40; 200 ])
         [ level h 0; level h 1 ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_hierarchy_rejects_empty () =
  let rejected f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "empty level list rejected" true
    (rejected (fun () -> Hierarchy.create_levels []));
  check_bool "no paths rejected" true
    (rejected (fun () -> Hierarchy.create []));
  check_bool "an empty path among others rejected" true
    (rejected (fun () -> Hierarchy.create [ [ Config.make 256 ]; [] ]))

(* A miss probes the level below with the missed block's first address
   only: a smaller block below would silently drop the rest of it. *)
let test_hierarchy_rejects_smaller_block_below () =
  let l1 = Config.make ~name:"L1-b128" ~block_bytes:128 1024
  and l2 = Config.make ~name:"L2-b64" ~block_bytes:64 4096 in
  (match Hierarchy.create [ [ Config.make 256 ]; [ l1; l2 ] ] with
  | exception Invalid_argument msg ->
      check_bool "message names the level" true
        (contains_substring ~needle:"L2-b64" msg);
      check_bool "message names the level above" true
        (contains_substring ~needle:"L1-b128" msg)
  | _ -> Alcotest.fail "expected Invalid_argument for a smaller block below");
  let h = Hierarchy.create [ [ l2; l1 ] ] in
  deliver (Hierarchy.sink h) [ Memsim.Event.read 0 4 ];
  check_int "a larger block below is accepted" 1 (level h 1).Stats.accesses

let test_hierarchy_access_chain_invariant () =
  (* For every preset (mixed PLRU/QLRU levels included): level i+1's
     accesses are exactly level i's misses. *)
  List.iter
    (fun (cpu : Cpu.t) ->
      let h = Cpu.hierarchy [ cpu ] in
      let sink = Hierarchy.sink h in
      deliver sink (lcg_stream 4000);
      let stats = path_stats h in
      let rec chain = function
        | a :: (b : Stats.t) :: rest ->
            check_int
              (Printf.sprintf "%s: misses feed the next level" cpu.Cpu.key)
              a.Stats.misses b.Stats.accesses;
            chain (b :: rest)
        | _ -> ()
      in
      chain stats)
    Cpu.all

(* The inclusion identity the grid relies on to read the paper's
   two-level hierarchy off its sweep: for two direct-mapped levels of
   one block size whose L2 has a multiple of L1's sets, L1's contents
   stay a subset of L2's, so the hierarchy's L1 is the small member
   fed the full stream, its L2 sees exactly the small member's misses
   (by kind and source), and misses exactly the large member's.
   Writebacks are not part of the identity: the hierarchy never
   forwards L1's dirty evictions. *)
let inclusion_case_gen =
  QCheck.Gen.(
    triple (oneofl [ 16; 32 ]) (oneofl [ 1; 2; 4; 8 ]) (oneofl [ 1; 2; 4; 8 ])
    >>= fun (bb, sets, k) ->
    let l1 = Config.make ~name:"L1" ~block_bytes:bb (bb * sets) in
    let l2 = Config.make ~name:"L2" ~block_bytes:bb (bb * sets * k) in
    triple (return l1) (return l2)
      (oneof [ Testkit.Gen.events_gen (); Testkit.Gen.run_events_gen () ]))

let hierarchy_is_read_off_the_sweep (l1, l2, events) =
  let h = Hierarchy.create [ [ l1; l2 ] ] in
  let m = Multi.create [ l1; l2 ] in
  deliver ~grain:7 (Hierarchy.sink h) events;
  deliver ~grain:7 (Multi.sink m) events;
  match (Hierarchy.results h, List.map snd (Multi.results m)) with
  | [ [ (_, h1); (_, (h2 : Stats.t)) ] ], [ small; (large : Stats.t) ] ->
      h1 = small
      && h2.accesses = small.misses
      && h2.read_accesses = small.read_misses
      && h2.write_accesses = small.write_misses
      && h2.app_accesses = small.app_misses
      && h2.malloc_accesses = small.malloc_misses
      && h2.free_accesses = small.free_misses
      && h2.misses = large.misses
      && h2.read_misses = large.read_misses
      && h2.write_misses = large.write_misses
      && h2.cold_misses = large.cold_misses
      && h2.app_misses = large.app_misses
      && h2.malloc_misses = large.malloc_misses
      && h2.free_misses = large.free_misses
  | _ -> false

let prop_hierarchy_read_off_sweep =
  QCheck.Test.make ~name:"hierarchy is read off the sweep" ~count:300
    (QCheck.make
       ~print:(fun (l1, l2, events) ->
         Format.asprintf "%a over %a, %d events" Config.pp l1 Config.pp l2
           (List.length events))
       inclusion_case_gen)
    hierarchy_is_read_off_the_sweep

let test_cpu_presets_well_formed () =
  check_int "five presets" 5 (List.length Cpu.all);
  List.iter
    (fun (cpu : Cpu.t) ->
      check_int (cpu.Cpu.key ^ ": three levels") 3
        (List.length cpu.Cpu.levels);
      check_bool (cpu.Cpu.key ^ ": findable") true
        ((Cpu.find cpu.Cpu.key).Cpu.key = cpu.Cpu.key);
      check_int
        (cpu.Cpu.key ^ ": one penalty per level")
        (List.length cpu.Cpu.levels)
        (Array.length (Cpu.miss_penalties cpu));
      (* Latencies grow monotonically down the hierarchy. *)
      let lats =
        List.map (fun (l : Cpu.level) -> l.Cpu.hit_latency) cpu.Cpu.levels
      in
      let rec increasing = function
        | a :: b :: rest -> a < b && increasing (b :: rest)
        | _ -> true
      in
      check_bool (cpu.Cpu.key ^ ": latencies increase") true
        (increasing (lats @ [ cpu.Cpu.mem_latency ])))
    Cpu.all;
  check_bool "unknown key lists candidates" true
    (match Cpu.find "486" with
    | exception Invalid_argument msg ->
        contains_substring ~needle:"skylake" msg
        && contains_substring ~needle:"486" msg
    | _ -> false)

let test_cpu_skylake_cost_model () =
  let cpu = Cpu.skylake in
  Alcotest.(check (array int))
    "miss penalties follow next-level latencies" [| 12; 42; 240 |]
    (Cpu.miss_penalties cpu);
  let h = Cpu.hierarchy [ cpu ] in
  deliver (Hierarchy.sink h) [ Memsim.Event.read 0 4 ];
  (* one miss at each level *)
  let levels = path_stats h in
  check_int "stalls" 294 (Cpu.stall_cycles cpu levels);
  check_int "total = instructions + stalls" 394
    (Cpu.total_cycles cpu levels ~instructions:100)

(* A fresh trie of every preset stores one way per set in each level,
   tags and QLRU ages alike: 56.6 K words, where dense QLRU ages made
   it 118 K and dense tags 740 K. *)
let test_cpu_hierarchy_footprint () =
  let words = Obj.reachable_words (Obj.repr (Cpu.hierarchy Cpu.all)) in
  check_bool
    (Printf.sprintf "a fresh five-preset hierarchy holds %d words" words)
    true (words < 64_000)

(* ------------------------------------------------------------------ *)
(* Hierarchy trie: shared levels against independent oracle chains    *)
(* ------------------------------------------------------------------ *)

let test_trie_distinct_levels () =
  check_int "the five presets share down to 7 levels" 7
    (Hierarchy.distinct_levels (Cpu.hierarchy Cpu.all));
  check_int "a duplicated preset is simulated once" 3
    (Hierarchy.distinct_levels (Cpu.hierarchy [ Cpu.skylake; Cpu.skylake ]));
  List.iter
    (fun n ->
      (* Equal configs at different depths see different streams. *)
      let path = List.init n (fun _ -> Config.make 256) in
      check_int
        (Printf.sprintf "one path of %d levels" n)
        n
        (Hierarchy.distinct_levels (Hierarchy.create [ path ])))
    [ 1; 2; 3; 4 ]

(* Every path of the shared trie, fed packed batches, reports the
   configs it was given and exactly its own oracle chain's statistics
   (writebacks included). *)
let trie_matches_oracle_chains paths events =
  let h = Hierarchy.create paths in
  deliver ~grain:13 (Hierarchy.sink h) events;
  List.for_all2
    (fun configs path ->
      List.map fst path = configs
      && List.map snd path = oracle_chain configs events)
    paths (Hierarchy.results h)

(* Addresses that pile onto a few sets of every preset level (1 MB
   apart: a multiple of every level's set span), mixed with uniform
   ones, so L2s and L3s evict too. *)
let preset_events_gen =
  QCheck.Gen.(
    let addr =
      oneof
        [ int_bound (4 * 1024 * 1024);
          pair (int_bound 7) (int_bound 40) >|= fun (set, tag) ->
          (set * 64) + (tag * 1024 * 1024) ]
    in
    list_size (int_range 1 1500)
      (pair (pair bool (int_range 0 2)) (pair addr (int_range 1 130))))

let presets_gen = QCheck.Gen.(list_size (int_range 1 6) (oneofl Cpu.all))

let preset_paths cpus =
  List.map
    (fun (cpu : Cpu.t) ->
      List.map (fun (l : Cpu.level) -> l.Cpu.config) cpu.Cpu.levels)
    cpus

let prop_trie_presets_match_oracle =
  QCheck.Test.make ~name:"preset subsets match oracle chains" ~count:60
    (QCheck.make QCheck.Gen.(pair presets_gen preset_events_gen))
    (fun (cpus, raw) ->
      trie_matches_oracle_chains (preset_paths cpus) (events_of_raw raw))

(* The trie's [reset] resets every level: after trace [a] and a reset,
   trace [b] (opening with [a]'s last event) must give every level of
   every path what a fresh trie fed only [b] reports, and what the
   path's oracle chain reports. *)
let prop_trie_reset_is_fresh =
  QCheck.Test.make ~name:"reset trie equals a fresh one" ~count:40
    (QCheck.make
       QCheck.Gen.(triple presets_gen preset_events_gen preset_events_gen))
    (fun (cpus, a, b) ->
      let paths = preset_paths cpus in
      let a = events_of_raw a in
      let b = List.nth a (List.length a - 1) :: events_of_raw b in
      let reused = Hierarchy.create paths and fresh = Hierarchy.create paths in
      deliver ~grain:13 (Hierarchy.sink reused) a;
      Hierarchy.reset reused;
      deliver ~grain:13 (Hierarchy.sink reused) b;
      deliver ~grain:13 (Hierarchy.sink fresh) b;
      let results = Hierarchy.results reused in
      results = Hierarchy.results fresh
      && List.for_all2
           (fun configs path -> List.map snd path = oracle_chain configs b)
           paths results)

(* Small mixed-policy stacks: two candidate levels per depth, block
   sizes non-decreasing with depth, and each path picks a depth and one
   candidate per level, so paths share prefixes (or coincide) often. *)
let mixed_stacks_gen =
  QCheck.Gen.(
    let level bb =
      triple
        (oneofl [ 128; 256; 512; 1024 ])
        (oneofl [ 1; 2; 4 ])
        Testkit.Gen.policy_gen
      >|= fun (cap, assoc, policy) ->
      let assoc = min assoc (cap / bb) in
      Config.make
        ~name:
          (Printf.sprintf "%d-%dway-b%d-%s" cap assoc bb
             (Policy.to_string policy))
        ~block_bytes:bb ~associativity:assoc ~policy cap
    in
    list_repeat 3 (oneofl [ 16; 32; 64 ]) >>= fun bbs ->
    flatten_l
      (List.map (fun bb -> pair (level bb) (level bb)) (List.sort compare bbs))
    >>= fun candidates ->
    let path =
      int_range 1 3 >>= fun depth ->
      list_repeat depth bool >|= fun picks ->
      List.mapi
        (fun k pick ->
          let a, b = List.nth candidates k in
          if pick then a else b)
        picks
    in
    list_size (int_range 1 5) path)

let prop_trie_mixed_stacks_match_oracle =
  QCheck.Test.make ~name:"mixed-policy stacks match oracle chains" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair mixed_stacks_gen (Testkit.Gen.events_gen ())))
    (fun (paths, events) -> trie_matches_oracle_chains paths events)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.record a ~kind:Memsim.Event.Read ~source:Memsim.Event.App ~miss:true
    ~cold:true;
  Stats.record b ~kind:Memsim.Event.Write ~source:Memsim.Event.Malloc
    ~miss:false ~cold:false;
  let m = Stats.merge a b in
  check_int "accesses" 2 m.Stats.accesses;
  check_int "misses" 1 m.Stats.misses;
  check_int "cold" 1 m.Stats.cold_misses;
  check_int "reads" 1 m.Stats.read_accesses;
  check_int "writes" 1 m.Stats.write_accesses

let test_stats_empty_miss_rate () =
  let s = Stats.create () in
  Alcotest.(check (float 0.)) "empty rate" 0. (Stats.miss_rate s)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "cachesim"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "assoc name" `Quick test_config_assoc_name;
          Alcotest.test_case "rejects bad" `Quick test_config_rejects_bad;
          Alcotest.test_case "paper sweep" `Quick test_config_paper_sweep;
          Alcotest.test_case "policy names" `Quick test_config_policy_names;
          Alcotest.test_case "policy token round-trip" `Quick
            test_policy_string_roundtrip;
          Alcotest.test_case "rejects PLRU over 64 ways" `Quick
            test_config_rejects_wide_plru;
        ] );
      ( "direct-mapped",
        [
          Alcotest.test_case "hit after miss" `Quick test_dm_hit_after_miss;
          Alcotest.test_case "conflict eviction" `Quick
            test_dm_conflict_eviction;
          Alcotest.test_case "distinct sets coexist" `Quick
            test_dm_distinct_sets_coexist;
          Alcotest.test_case "event spanning blocks" `Quick
            test_event_spanning_blocks;
          Alcotest.test_case "source breakdown" `Quick test_source_breakdown;
          Alcotest.test_case "flush" `Quick test_flush;
        ] );
      ( "write-back",
        [
          Alcotest.test_case "dirty eviction" `Quick test_wb_dirty_eviction;
          Alcotest.test_case "clean eviction free" `Quick
            test_wb_clean_eviction_free;
          Alcotest.test_case "flush writes dirty" `Quick
            test_wb_flush_writes_dirty;
          Alcotest.test_case "read after write keeps dirty" `Quick
            test_wb_read_after_write_keeps_dirty;
          Alcotest.test_case "assoc dirty follows LRU" `Quick
            test_wb_assoc_dirty_follows_lru;
          Alcotest.test_case "dirty on write hit (QLRU)" `Quick
            test_wb_policy_dirty_on_write_hit;
          Alcotest.test_case "writeback counted once" `Quick
            test_wb_policy_writeback_counted_once;
          Alcotest.test_case "dirty follows PLRU victim" `Quick
            test_wb_plru_dirty_follows_victim;
        ]
        @ qsuite [ prop_writebacks_bounded ] );
      ( "set-associative",
        [
          Alcotest.test_case "two blocks coexist" `Quick
            test_assoc_two_blocks_coexist;
          Alcotest.test_case "LRU eviction order" `Quick
            test_assoc_lru_eviction_order;
          Alcotest.test_case "touch refreshes LRU" `Quick
            test_assoc_touch_refreshes_lru;
        ]
        @ qsuite
            [
              prop_dm_matches_model;
              prop_2way_matches_model;
              prop_4way_matches_model;
              prop_fully_assoc_matches_model;
              prop_assoc_monotone;
            ] );
      ( "multi",
        [
          Alcotest.test_case "broadcast" `Quick test_multi_broadcast;
          Alcotest.test_case "bigger cache fewer misses" `Quick
            test_multi_bigger_cache_fewer_misses;
          Alcotest.test_case "find" `Quick test_multi_find;
        ] );
      ( "forest",
        [
          Alcotest.test_case "equivalence vs independent caches" `Quick
            test_forest_equivalence;
          Alcotest.test_case "batched multi equivalence" `Quick
            test_forest_batched_multi_equivalence;
          Alcotest.test_case "create validation" `Quick
            test_forest_create_rejects;
          Alcotest.test_case "re-touch after a flush misses" `Quick
            test_forest_flush_retouch;
        ]
        @ qsuite
            [ prop_forest_matches_caches;
              prop_forest_runs_and_flushes;
              prop_forest_reset_is_fresh;
              prop_forest_lru_matches_oracle ]
        @ [
            Alcotest.test_case "storage follows occupancy" `Quick
              test_forest_storage_follows_occupancy;
          ] );
      ( "walk",
        [
          Alcotest.test_case "an event ending in a small block, then words"
            `Quick test_walk_gate_edge;
          Alcotest.test_case "one-family multi equals its forest" `Quick
            test_walk_one_family;
          Alcotest.test_case "sink_families validation" `Quick
            test_walk_rejects;
        ]
        @ qsuite [ prop_multi_runs_match_oracles ] );
      ( "packed",
        [
          Alcotest.test_case "hierarchy packed equals boxed" `Quick
            test_hierarchy_packed_matches_boxed;
        ]
        @ qsuite
            [ prop_forest_packed_matches_boxed; prop_multi_packed_matches_boxed ] );
      ( "shard",
        [
          Alcotest.test_case "sharded stats identical across domains"
            `Quick test_shard_identity;
          Alcotest.test_case "rejects zero domains" `Quick test_shard_rejects;
        ]
        @ qsuite [ prop_shard_matches_sequential ] );
      ( "policy",
        [
          Alcotest.test_case "lru victim sequence" `Quick
            test_lru_victim_sequence;
          Alcotest.test_case "plru victim sequence" `Quick
            test_plru_victim_sequence;
          Alcotest.test_case "qlru-h1-m1 victim sequence" `Quick
            test_qlru_h11_m1_victim_sequence;
          Alcotest.test_case "qlru-h0-m1 victim sequence" `Quick
            test_qlru_h00_m1_victim_sequence;
          Alcotest.test_case "flush resets recency state" `Quick
            test_policy_flush_resets_state;
        ]
        @ qsuite
            [
              prop_lru_matches_oracle;
              prop_plru_matches_oracle;
              prop_qlru_h00_m1_matches_oracle;
              prop_qlru_h11_m1_matches_oracle;
              prop_qlru_h00_m0_matches_oracle;
              prop_qlru_any_matches_oracle;
              prop_plru_flush_matches_oracle;
              prop_qlru_flush_matches_oracle;
            ] );
      ( "hierarchy",
        [
          Alcotest.test_case "L2 sees only L1 misses" `Quick
            test_hierarchy_l2_sees_only_l1_misses;
          Alcotest.test_case "stall cycles" `Quick test_hierarchy_stall_cycles;
          Alcotest.test_case "L2 filters" `Quick test_hierarchy_l2_filters;
          Alcotest.test_case "three levels filter" `Quick
            test_hierarchy_three_level_filters;
          Alcotest.test_case "per-level stalls" `Quick
            test_hierarchy_per_level_stalls;
          Alcotest.test_case "rejects empty" `Quick test_hierarchy_rejects_empty;
          Alcotest.test_case "rejects a smaller block below" `Quick
            test_hierarchy_rejects_smaller_block_below;
          Alcotest.test_case "access chain invariant" `Quick
            test_hierarchy_access_chain_invariant;
        ] );
      ("identity", qsuite [ prop_hierarchy_read_off_sweep ]);
      ( "trie",
        [
          Alcotest.test_case "distinct level count" `Quick
            test_trie_distinct_levels;
        ]
        @ qsuite
            [
              prop_trie_presets_match_oracle;
              prop_trie_mixed_stacks_match_oracle;
              prop_trie_reset_is_fresh;
            ] );
      ( "cpu",
        [
          Alcotest.test_case "presets well formed" `Quick
            test_cpu_presets_well_formed;
          Alcotest.test_case "skylake cost model" `Quick
            test_cpu_skylake_cost_model;
          Alcotest.test_case "fresh hierarchy footprint" `Quick
            test_cpu_hierarchy_footprint;
        ] );
      ( "stats",
        [
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "empty miss rate" `Quick
            test_stats_empty_miss_rate;
        ] );
    ]
