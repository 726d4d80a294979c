open Metrics

let coalescing (ctx : Context.t) =
  let table =
    Table.create
      ~title:
        "Ablation: coalescing in FirstFit (paper 4.1: coalescing costs \
         time and locality, buys space)"
      ~columns:
        [ ("Program", Table.Left); ("Variant", Table.Left);
          ("sbrk heap", Table.Right); ("malloc+free instr", Table.Right);
          ("miss 16K (%)", Table.Right); ("miss 64K (%)", Table.Right);
          ("total time 64K (s)", Table.Right) ]
  in
  List.iter
    (fun (pkey, plabel) ->
      List.iter
        (fun (akey, alabel) ->
          let d = Runs.get ctx.Context.runs ~profile:pkey ~allocator:akey in
          let s = d.Artifact.summary in
          let et = Artifact.exec_time d ~model:ctx.Context.model ~cache:"64K-dm" in
          Table.add_row table
            [ plabel; alabel;
              Table.fmt_kb s.Artifact.heap_used;
              Table.fmt_int
                (s.Artifact.malloc_instructions + s.Artifact.free_instructions);
              Table.fmt_float ~decimals:2
                (100. *. Artifact.miss_rate d ~cache:"16K-dm");
              Table.fmt_float ~decimals:2
                (100. *. Artifact.miss_rate d ~cache:"64K-dm");
              Table.fmt_float ~decimals:2 (Exec_time.total_seconds et) ])
        [ ("firstfit", "coalescing"); ("firstfit-nc", "no coalescing") ];
      Table.add_separator table)
    [ ("gs-large", "GS"); ("ptc", "PTC"); ("gawk", "Gawk") ];
  Table.render table
  ^ "\nReading: in a SEARCHING allocator coalescing is load-bearing — without\n\
     it the freelist floods with unusable small blocks and next-fit search\n\
     explodes (instructions and misses both).  The paper's point is subtler:\n\
     the winning designs (BSD, QuickFit) drop coalescing only after also\n\
     dropping search, replacing both with segregated exact re-use.\n"

let size_classes (ctx : Context.t) =
  let table =
    Table.create
      ~title:
        "Ablation: size-class policy on GS-Large (paper 4.4: balance \
         re-use against internal fragmentation)"
      ~columns:
        [ ("Allocator", Table.Left); ("Classing", Table.Left);
          ("Internal frag", Table.Right); ("sbrk heap", Table.Right);
          ("miss 64K (%)", Table.Right); ("total time 64K (s)", Table.Right) ]
  in
  List.iter
    (fun (akey, alabel, classing) ->
      let d = Runs.get ctx.Context.runs ~profile:"gs-large" ~allocator:akey in
      let s = d.Artifact.summary in
      let et = Artifact.exec_time d ~model:ctx.Context.model ~cache:"64K-dm" in
      Table.add_row table
        [ alabel; classing;
          Table.fmt_pct
            (Allocators.Alloc_stats.internal_fragmentation
               d.Artifact.alloc_stats);
          Table.fmt_kb s.Artifact.heap_used;
          Table.fmt_float ~decimals:2 (100. *. Artifact.miss_rate d ~cache:"64K-dm");
          Table.fmt_float ~decimals:2 (Exec_time.total_seconds et) ])
    [ ("bsd", "BSD", "powers of two");
      ("quickfit", "QuickFit", "exact 4-32B + general");
      ("gnu-local", "GNU local", "powers of two, chunked");
      ("custom", "Custom", "measured (size-mapping array)") ];
  Table.render table
  ^ "\nExpected: BSD's crude rounding wastes the most space; measured\n\
     classes keep BSD-like speed with QuickFit-like fragmentation.\n"

(* The extension caches only GS-Large's associativity and block-size
   ablations read are one derived cell, not members of every grid
   cell's sweep: one relayed driver pass per allocator into a Multi of
   the six, at the grid's scale.  Their direct-mapped points (16K-dm,
   64K-dm) are the grid cell's. *)
let sweep_program = "gs-large"

let sweep_configs =
  List.map
    (fun a -> Cachesim.Config.make ~associativity:a (16 * 1024))
    [ 2; 4; 8 ]
  (* Block-size sweep at 64K for the hardware-prefetch discussion
     (Smith's line-size trade-off); 32-byte blocks are "64K-dm". *)
  @ List.map
      (fun b ->
        Cachesim.Config.make
          ~name:(Printf.sprintf "64K-b%d" b)
          ~block_bytes:b (64 * 1024))
      [ 16; 64; 128 ]

let sweep_rows (ctx : Context.t) =
  let runs = ctx.Context.runs in
  let scale = Runs.scale runs in
  let allocators = List.map fst Context.with_custom in
  Runs.derive runs ~id:"abl-sweep" ~scale
    ~inputs:
      (Derived.inputs
         [ ("programs", [ Derived.program sweep_program ]);
           ("allocators", allocators);
           ("configs", List.map Derived.config sweep_configs) ])
  @@ fun () ->
  let profile = Workload.Programs.find sweep_program in
  (* One Multi serves every pass, reset before each. *)
  let multi = Cachesim.Multi.create sweep_configs in
  List.map
    (fun akey ->
      Cachesim.Multi.reset multi;
      let r =
        Exec.Relay.with_sink (Cachesim.Multi.sink multi) @@ fun sink ->
        Workload.Driver.run ~sink ~scale ~profile ~allocator:akey ()
      in
      Derived.row ~program:sweep_program ~variant:akey r
        (List.map
           (fun ((c : Cachesim.Config.t), s) -> (c.name, s))
           (Cachesim.Multi.results multi)))
    allocators

(* GS-Large's miss rate per allocator at named caches, each placed at
   [x]: a member of the grid cell's sweep, or else of [abl-sweep]. *)
let gs_large_sweep (ctx : Context.t) ~title ~x_label members =
  let rows = sweep_rows ctx in
  let series = Series.create ~title ~x_label ~y_label:"miss rate %" in
  List.iter
    (fun (akey, alabel) ->
      let d = Runs.get ctx.Context.runs ~profile:sweep_program ~allocator:akey in
      let row = Derived.find rows ~program:sweep_program ~variant:akey in
      let stats name =
        if
          List.exists
            (fun (c : Cachesim.Config.t) -> c.name = name)
            Runs.standard_configs
        then Artifact.cache_stats d ~name
        else Derived.stats row name
      in
      Series.add series ~name:alabel
        (List.map
           (fun (x, name) ->
             (float_of_int x, Cachesim.Stats.miss_rate_pct (stats name)))
           members))
    Context.with_custom;
  Series.render series

let associativity ctx =
  gs_large_sweep ctx
    ~title:
      "Ablation: 16K cache associativity on GS-Large (conflict-miss \
       content per allocator)"
    ~x_label:"ways"
    [ (1, "16K-dm"); (2, "16K-2way"); (4, "16K-4way"); (8, "16K-8way") ]
  ^ "\nWilson (cited in 2.2) predicts associativity absorbs part of the\n\
     placement-induced conflicts; the allocator gap narrows with ways.\n"

let two_level (ctx : Context.t) =
  let l2_penalty = 100 and l1_penalty = 10 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: two-level hierarchy on GS-Large (16K L1 + 256K L2, \
            %d/%d-cycle penalties)"
           l1_penalty l2_penalty)
      ~columns:
        [ ("Allocator", Table.Left); ("L1 miss (%)", Table.Right);
          ("L2 miss (%)", Table.Right); ("stall cycles (x10^6)", Table.Right);
          ("total cycles (x10^6)", Table.Right) ]
  in
  List.iter
    (fun (akey, alabel) ->
      let d = Runs.get ctx.Context.runs ~profile:"gs-large" ~allocator:akey in
      let (_, a1, m1), (_, a2, m2) = Artifact.paper_hierarchy d in
      let stalls = (m1 * l1_penalty) + (m2 * l2_penalty) in
      let total = d.Artifact.summary.Artifact.instructions + stalls in
      let pct misses accesses = 100. *. Cachesim.Stats.rate ~misses ~accesses in
      Table.add_row table
        [ alabel;
          Table.fmt_float ~decimals:2 (pct m1 a1);
          Table.fmt_float ~decimals:2 (pct m2 a2);
          Table.fmt_float ~decimals:1 (float_of_int stalls /. 1e6);
          Table.fmt_float ~decimals:1 (float_of_int total /. 1e6) ])
    Context.with_custom;
  Table.render table

let block_size ctx =
  gs_large_sweep ctx
    ~title:
      "Extension: cache block size at 64K on GS-Large (hardware \
       prefetch via multi-word lines, paper 4.2)"
    ~x_label:"block bytes"
    [ (16, "64K-b16"); (32, "64K-dm"); (64, "64K-b64"); (128, "64K-b128") ]
  ^ "\nLarger blocks prefetch neighbouring objects (helping dense, re-used\n\
     layouts most) until conflict misses take over; tag-free allocators\n\
     gain more because prefetched words are object data, not metadata.\n"

let seq_family (ctx : Context.t) =
  let table =
    Table.create
      ~title:
        "Extension: the sequential-fit family on GS-Large (conclusion: \
         \"first-fit, best-fit, etc, have poor reference locality\")"
      ~columns:
        [ ("Allocator", Table.Left); ("malloc instr/call", Table.Right);
          ("alloc refs", Table.Right); ("sbrk heap", Table.Right);
          ("miss 16K (%)", Table.Right); ("miss 64K (%)", Table.Right) ]
  in
  List.iter
    (fun (akey, alabel) ->
      let d = Runs.get ctx.Context.runs ~profile:"gs-large" ~allocator:akey in
      let s = d.Artifact.summary in
      let calls = max 1 d.Artifact.alloc_stats.Allocators.Alloc_stats.malloc_calls in
      Table.add_row table
        [ alabel;
          Table.fmt_float ~decimals:1
            (float_of_int s.Artifact.malloc_instructions /. float_of_int calls);
          Table.fmt_int s.Artifact.allocator_refs;
          Table.fmt_kb s.Artifact.heap_used;
          Table.fmt_float ~decimals:2 (100. *. Artifact.miss_rate d ~cache:"16K-dm");
          Table.fmt_float ~decimals:2 (100. *. Artifact.miss_rate d ~cache:"64K-dm") ])
    [ ("firstfit", "FirstFit (roving)"); ("bestfit", "BestFit (exhaustive)");
      ("gnu-g++", "GNU G++ (segregated)"); ("quickfit", "QuickFit (exact)") ];
  Table.render table
  ^ "\nExpected: BestFit walks the whole list (most search work and the\n\
     most scattered references); segregating by size shrinks both.\n"

(* Flush-aware runs are one-offs outside the shared grid: one driver
   pass per allocator, fanned out to one flushing cache per quantum,
   kept as a derived cell. *)
let flush_program = "gs-large"
let flush_config = Cachesim.Config.make (64 * 1024)
let flush_quanta = [ 0; 100_000; 20_000 ]

let flush_allocators =
  [ ("firstfit", "FirstFit"); ("bsd", "BSD"); ("gnu-local", "GNU local");
    ("quickfit", "QuickFit") ]

let quantum_name q = "flush-" ^ string_of_int q

let flush_rows (ctx : Context.t) =
  let scale = Context.off_grid_scale ctx in
  let allocators = List.map fst flush_allocators in
  Runs.derive ctx.Context.runs ~id:"abl-flush" ~scale
    ~inputs:
      (Derived.inputs
         [ ("programs", [ Derived.program flush_program ]);
           ("allocators", allocators);
           ("config", [ Derived.config flush_config ]);
           ("quanta", List.map string_of_int flush_quanta) ])
  @@ fun () ->
  let profile = Workload.Programs.find flush_program in
  (* A cache flushed before every [quantum]th event (never for 0).  The
     sink cannot affect the driver, so every quantum shares one pass;
     [restart] readies the cache and its count for the next pass. *)
  let flushing quantum =
    let cache = Cachesim.Forest.create [ flush_config ] in
    let until_flush = ref quantum in
    let restart () =
      Cachesim.Forest.reset cache;
      until_flush := quantum
    in
    let sink (b : Memsim.Event.Batch.t) =
      for i = 0 to b.Memsim.Event.Batch.len - 1 do
        if quantum > 0 then begin
          decr until_flush;
          if !until_flush = 0 then begin
            Cachesim.Forest.flush cache;
            until_flush := quantum
          end
        end;
        let meta = Array.unsafe_get b.Memsim.Event.Batch.metas i in
        Cachesim.Forest.access_range_ks cache
          ~ks:(Memsim.Event.Packed.ks meta)
          ~addr:(Array.unsafe_get b.Memsim.Event.Batch.addrs i)
          ~size:(meta lsr 3)
      done
    in
    (quantum_name quantum, cache, restart, sink)
  in
  (* One cache per quantum serves every pass. *)
  let caches = List.map flushing flush_quanta in
  List.map
    (fun akey ->
      List.iter (fun (_, _, restart, _) -> restart ()) caches;
      let r =
        Exec.Relay.with_sink
          (Memsim.Sink.fanout (List.map (fun (_, _, _, s) -> s) caches))
        @@ fun sink -> Workload.Driver.run ~sink ~scale ~profile ~allocator:akey ()
      in
      Derived.row ~program:flush_program ~variant:akey r
        (List.map
           (fun (name, c, _, _) -> (name, Cachesim.Forest.member_stats c 0))
           caches))
    allocators

let flush (ctx : Context.t) =
  let rows = flush_rows ctx in
  let table =
    Table.create
      ~title:
        "Extension: periodic cache flushes (context switches, Mogul & \
         Borg) — 64K direct-mapped miss rate on GS-Large"
      ~columns:
        [ ("Allocator", Table.Left); ("no flush (%)", Table.Right);
          ("every 100K refs (%)", Table.Right);
          ("every 20K refs (%)", Table.Right) ]
  in
  List.iter
    (fun (akey, alabel) ->
      let row = Derived.find rows ~program:flush_program ~variant:akey in
      Table.add_row table
        (alabel
        :: List.map
             (fun q ->
               Table.fmt_float ~decimals:2
                 (Cachesim.Stats.miss_rate_pct
                    (Derived.stats row (quantum_name q))))
             flush_quanta))
    flush_allocators;
  Table.render table
  ^ "\nThe paper's own numbers deliberately exclude flushes; frequent\n\
     flushes compress the allocator differences toward cold-start costs.\n"

(* The QuickFit and GNU local rows are grid cells.  The derived cell holds
   what the grid cannot run: per program a profiling pass trains the
   predictor, then predictive and custom each run into a 16K/64K sweep. *)
let lifetime_programs = [ ("gawk", "Gawk"); ("espresso", "Espresso") ]
let lifetime_variants = [ "predictive"; "quickfit"; "custom"; "gnu-local" ]

let lifetime_cells =
  [ ("gawk", "quickfit"); ("gawk", "gnu-local"); ("espresso", "quickfit");
    ("espresso", "gnu-local") ]

let lifetime_configs =
  [ Cachesim.Config.make (16 * 1024); Cachesim.Config.make (64 * 1024) ]

let lifetime_rows (ctx : Context.t) =
  let runs = ctx.Context.runs in
  let scale = Runs.scale runs in
  let driven =
    Runs.derive runs ~id:"abl-lifetime" ~scale
      ~inputs:
        (Derived.inputs
           [ ("programs",
              List.map (fun (p, _) -> Derived.program p) lifetime_programs);
             ("variants", [ "predictive"; "custom" ]);
             ("configs", List.map Derived.config lifetime_configs) ])
    @@ fun () ->
    (* One Multi serves every pass, reset before each. *)
    let multi = Cachesim.Multi.create lifetime_configs in
    List.concat_map
      (fun (pkey, _) ->
        let profile = Workload.Programs.find pkey in
        let row ?arena_pages variant r =
          Derived.row ~program:pkey ~variant ?arena_pages r
            (List.map
               (fun ((c : Cachesim.Config.t), s) -> (c.name, s))
               (Cachesim.Multi.results multi))
        in
        (* Profiling pass, then the measured run with a trained table. *)
        let predictions = Workload.Driver.train_predictor ~profile () in
        let heap = Allocators.Heap.create () in
        let p = Allocators.Predictive.create ~predictions heap in
        let alloc = Allocators.Predictive.allocator p in
        Cachesim.Multi.reset multi;
        let r =
          Exec.Relay.with_sink (Cachesim.Multi.sink multi) @@ fun sink ->
          Workload.Driver.run_with ~sink ~scale ~profile ~heap ~alloc ()
        in
        let arena_pages = Allocators.Predictive.arena_pages p in
        let predictive = row "predictive" ~arena_pages r in
        Cachesim.Multi.reset multi;
        let r =
          Exec.Relay.with_sink (Cachesim.Multi.sink multi) @@ fun sink ->
          Workload.Driver.run ~sink ~scale ~profile ~allocator:"custom" ()
        in
        [ predictive; row "custom" r ])
      lifetime_programs
  in
  List.map
    (fun (profile, allocator) ->
      Derived.of_artifact ~variant:allocator
        (Runs.get runs ~profile ~allocator))
    lifetime_cells
  @ driven

let lifetime_prediction (ctx : Context.t) =
  let scale = Runs.scale ctx.Context.runs in
  let rows = lifetime_rows ctx in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Future work (5.1): allocation-site lifetime prediction \
            (Barrett & Zorn), 64K cache, scale %.2f"
           scale)
      ~columns:
        [ ("Program", Table.Left); ("Allocator", Table.Left);
          ("arena pages", Table.Right); ("sbrk heap", Table.Right);
          ("time in alloc", Table.Right); ("miss 16K (%)", Table.Right);
          ("miss 64K (%)", Table.Right) ]
  in
  List.iter
    (fun (pkey, plabel) ->
      List.iter
        (fun variant ->
          let row = Derived.find rows ~program:pkey ~variant in
          let rate kb =
            Cachesim.Stats.miss_rate_pct
              (Derived.stats row (string_of_int kb ^ "K-dm"))
          in
          Table.add_row table
            [ plabel; variant;
              (match row.Derived.arena_pages with
              | Some pages -> string_of_int pages
              | None -> "-");
              Table.fmt_kb row.Derived.heap_used;
              Table.fmt_pct (Derived.allocator_fraction row);
              Table.fmt_float ~decimals:2 (rate 16);
              Table.fmt_float ~decimals:2 (rate 64) ])
        lifetime_variants;
      Table.add_separator table)
    lifetime_programs;
  Table.render table
  ^ "\nPredicted-short objects bump-allocate into a few recycled arena\n\
     pages; dead-together objects cost no per-object free-list traffic.\n\
     Mispredictions pin arena pages (the realistic failure mode).\n"

let penalty_sweep (ctx : Context.t) =
  let series =
    Series.create
      ~title:
        "Extension: total time vs miss penalty on GS-Large (paper 4.4: \
         high penalties may justify GNU local's CPU overhead)"
      ~x_label:"penalty cycles" ~y_label:"total Mcycles"
  in
  let penalties = [ 10; 25; 50; 100; 200; 400 ] in
  List.iter
    (fun (akey, alabel) ->
      let d = Runs.get ctx.Context.runs ~profile:"gs-large" ~allocator:akey in
      let pts =
        List.map
          (fun p ->
            let model = Cost_model.with_penalty ctx.Context.model p in
            let et = Artifact.exec_time d ~model ~cache:"64K-dm" in
            ( float_of_int p,
              float_of_int (Exec_time.total_cycles et) /. 1e6 ))
          penalties
      in
      Series.add series ~name:alabel pts)
    [ ("quickfit", "QuickFit"); ("bsd", "BSD"); ("gnu-local", "GNU local");
      ("firstfit", "FirstFit"); ("custom", "Custom") ];
  Series.render series
