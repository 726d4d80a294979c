open Metrics

(* Tables 2 and 3 share their column layout. *)
let program_info_table (ctx : Context.t) ~title ~programs =
  let table =
    Table.create ~title
      ~columns:
        [ ("Program", Table.Left); ("Est. time (sec)", Table.Right);
          ("Total instr (x10^6)", Table.Right);
          ("Data refs (x10^6)", Table.Right); ("Max heap", Table.Right);
          ("Objects alloc'd", Table.Right); ("Objects freed", Table.Right) ]
  in
  List.iter
    (fun (pkey, plabel) ->
      let d = Runs.get ctx.Context.runs ~profile:pkey ~allocator:"firstfit" in
      let s = d.Artifact.summary in
      let et = Artifact.exec_time d ~model:ctx.Context.model ~cache:"64K-dm" in
      let st = d.Artifact.alloc_stats in
      Table.add_row table
        [ plabel;
          Table.fmt_float ~decimals:2 (Exec_time.total_seconds et);
          Table.fmt_float ~decimals:1
            (float_of_int s.Artifact.instructions /. 1e6);
          Table.fmt_float ~decimals:1
            (float_of_int s.Artifact.data_refs /. 1e6);
          Table.fmt_kb s.Artifact.max_live_bytes;
          Table.fmt_int st.Allocators.Alloc_stats.malloc_calls;
          Table.fmt_int st.Allocators.Alloc_stats.free_calls ])
    programs;
  Table.render table

let tab2 ctx =
  program_info_table ctx
    ~title:
      "Table 2: Test program performance information (FirstFit allocator, \
       64K cache estimate)"
    ~programs:Context.five_programs
  ^ "\nScaled ~1:50 from the paper's runs; retained-heap sizes are absolute.\n\
     Paper (for comparison): Espresso 1673K objects/396KB heap, GS 924K/4.1MB,\n\
     PTC 103K/3.1MB with 0 freed, Gawk 1704K/60KB, Make 24K/380KB.\n"

let tab3 ctx =
  program_info_table ctx
    ~title:"Table 3: Characteristics of different input sets for GhostScript"
    ~programs:
      [ ("gs-small", "GS-Small"); ("gs-medium", "GS-Medium");
        ("gs-large", "GS-Large") ]
  ^ "\nPaper: 17.0s/195M instr/1.1MB, 51.3s/539M/2.7MB, 131.3s/1344M/4.1MB.\n"

(* Tables 4 and 5 share their layout. *)
let time_and_miss_table (ctx : Context.t) ~cache ~title =
  let table =
    Table.create ~title
      ~columns:
        (("Allocator", Table.Left)
        :: List.map
             (fun (_, label) -> (label ^ " total/miss (s)", Table.Right))
             Context.five_programs)
  in
  List.iter
    (fun (akey, alabel) ->
      let cells =
        List.map
          (fun (pkey, _) ->
            let d = Runs.get ctx.Context.runs ~profile:pkey ~allocator:akey in
            let et = Artifact.exec_time d ~model:ctx.Context.model ~cache in
            Table.fmt_float (Exec_time.total_seconds et)
            ^ "/"
            ^ Table.fmt_float (Exec_time.miss_seconds et))
          Context.five_programs
      in
      Table.add_row table (alabel :: cells))
    Context.paper_allocators;
  Table.render table

let tab4 ctx =
  time_and_miss_table ctx ~cache:"16K-dm"
    ~title:
      "Table 4: Total estimated execution time and time waiting for a \
       16-kilobyte direct-mapped cache miss"
  ^ "\nPaper shape: FirstFit worst everywhere; BSD/QuickFit lowest totals;\n\
     GNU local's low miss time does not make up for its CPU overhead.\n"

let tab5 ctx =
  time_and_miss_table ctx ~cache:"64K-dm"
    ~title:
      "Table 5: Total estimated execution time and time waiting for a \
       64-kilobyte direct-mapped cache miss"
  ^ "\nPaper shape: GNU local has the smallest miss time in most programs\n\
     at 64K, yet larger total time than QuickFit/BSD.\n"

let tab6 (ctx : Context.t) =
  let cache = "64K-dm" in
  let table =
    Table.create
      ~title:
        "Table 6: Effect of boundary tags on execution time in the GNU \
         local allocator (64K direct-mapped cache)"
      ~columns:
        (("Metric", Table.Left)
        :: List.map
             (fun (_, label) -> (label, Table.Right))
             Context.five_programs)
  in
  let per_program f =
    List.map (fun (pkey, _) -> f pkey) Context.five_programs
  in
  let get pkey key = Runs.get ctx.Context.runs ~profile:pkey ~allocator:key in
  let miss_rate_row key =
    per_program (fun pkey ->
        Table.fmt_float ~decimals:3
          (100. *. Artifact.miss_rate (get pkey key) ~cache))
  in
  let miss_penalty_row key =
    per_program (fun pkey ->
        let et =
          Artifact.exec_time (get pkey key) ~model:ctx.Context.model ~cache
        in
        Table.fmt_float ~decimals:2 (100. *. Exec_time.miss_fraction et))
  in
  Table.add_row table ("Miss rate, with tags (%)" :: miss_rate_row "gnu-local-tags");
  Table.add_row table
    ("Miss penalty, with tags (% of exec)" :: miss_penalty_row "gnu-local-tags");
  Table.add_row table ("Miss rate, no tags (%)" :: miss_rate_row "gnu-local");
  Table.add_row table
    ("Miss penalty, no tags (% of exec)" :: miss_penalty_row "gnu-local");
  Table.add_separator table;
  Table.add_row table
    ("Exec-time increase due to tags (%)"
    :: per_program (fun pkey ->
           let et key =
             Artifact.exec_time (get pkey key) ~model:ctx.Context.model ~cache
           in
           let with_tags = Exec_time.total_cycles (et "gnu-local-tags") in
           let without = Exec_time.total_cycles (et "gnu-local") in
           Table.fmt_float ~decimals:2
             (100. *. (float_of_int (with_tags - without) /. float_of_int without))));
  Table.render table
  ^ "\nPaper: boundary tags increase total execution time by 0.1%-1.1%;\n\
     elimination helps but is not decisive at 25-cycle penalties.\n"

(* The paper's allocator ranking, re-run on modern (2008-2017) L1/L2/L3
   hierarchies with real replacement policies.  Off-grid like the flush
   ablation: one driver pass per allocator on GS-Large, feeding one
   hierarchy whose paths are the CPU presets, so all presets see the
   identical trace and the levels they share are simulated once.  The
   hierarchy is built once and reset before each allocator's pass,
   which then reports exactly what a fresh one would; a level's tags
   grow with its fullest set and a reset keeps them, so the 8-16 MB
   L3s cost what the passes touch, not 664 K dense tag words.  The
   passes are a derived cell holding each preset's per-level
   statistics; latencies, and so cycles, are applied when rendering. *)
let cpu_program = "gs-large"

let level_name (cpu : Cachesim.Cpu.t) i = cpu.key ^ "/L" ^ string_of_int (i + 1)

let cpu_rows (ctx : Context.t) ~scale ~cpus =
  let allocators = List.map fst Context.with_custom in
  Runs.derive ctx.Context.runs ~id:"tabcpu" ~scale
    ~inputs:
      (Derived.inputs
         [ ("programs", [ Derived.program cpu_program ]);
           ("allocators", allocators);
           ("cpus", List.map Derived.cpu cpus) ])
  @@ fun () ->
  let profile = Workload.Programs.find cpu_program in
  let hier = Cachesim.Cpu.hierarchy cpus in
  List.map
    (fun akey ->
      Cachesim.Hierarchy.reset hier;
      let r =
        Exec.Relay.with_sink (Cachesim.Hierarchy.sink hier) @@ fun sink ->
        Workload.Driver.run ~sink ~scale ~profile ~allocator:akey ()
      in
      Derived.row ~program:cpu_program ~variant:akey r
        (List.concat
           (List.map2
              (fun cpu path ->
                List.mapi (fun i (_, stats) -> (level_name cpu i, stats)) path)
              cpus
              (Cachesim.Hierarchy.results hier))))
    allocators

let tabcpu (ctx : Context.t) =
  let scale = Context.off_grid_scale ctx in
  let cpus = Cachesim.Cpu.all in
  let rows = cpu_rows ctx ~scale ~cpus in
  let level_stats (cpu : Cachesim.Cpu.t) row =
    List.mapi (fun i _ -> Derived.stats row (level_name cpu i)) cpu.levels
  in
  let runs =
    List.map
      (fun (akey, alabel) ->
        let row = Derived.find rows ~program:cpu_program ~variant:akey in
        ( alabel,
          row.Derived.instructions,
          List.map (fun cpu -> (cpu, level_stats cpu row)) cpus ))
      Context.with_custom
  in
  let total cpu levels instructions =
    Cachesim.Cpu.total_cycles cpu levels ~instructions
  in
  let ranking =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: allocator ranking on modern CPU hierarchies \
            (GS-Large at scale %g, total cycles x10^6)"
           scale)
      ~columns:
        (("Allocator", Table.Left)
        :: List.map
             (fun (cpu : Cachesim.Cpu.t) -> (cpu.key, Table.Right))
             cpus)
  in
  List.iter
    (fun (alabel, instructions, presets) ->
      Table.add_row ranking
        (alabel
        :: List.map
             (fun (cpu, levels) ->
               Table.fmt_float ~decimals:2
                 (float_of_int (total cpu levels instructions) /. 1e6))
             presets))
    runs;
  (* Winner order per preset, cheapest first — the headline the paper's
     Figure 4-7 discussion asks about. *)
  let order =
    String.concat "\n"
      (List.mapi
         (fun i (cpu : Cachesim.Cpu.t) ->
           let ranked =
             List.sort compare
               (List.map
                  (fun (alabel, instructions, presets) ->
                    (total cpu (snd (List.nth presets i)) instructions, alabel))
                  runs)
           in
           Printf.sprintf "  %-12s %s" (cpu.key ^ ":")
             (String.concat " < " (List.map snd ranked)))
         cpus)
  in
  (* Per-level detail for the preset selected with --cpu. *)
  let cpu = ctx.Context.cpu in
  let detail =
    Table.create
      ~title:
        (Printf.sprintf "Per-level detail on %s (mem %d cycles)" cpu.label
           cpu.mem_latency)
      ~columns:
        (("Allocator", Table.Left)
        :: List.concat_map
             (fun (l : Cachesim.Cpu.level) ->
               [ (l.config.Cachesim.Config.name ^ " miss (%)", Table.Right) ])
             cpu.levels
        @ [ ("stalls (x10^6)", Table.Right); ("total (x10^6)", Table.Right) ])
  in
  List.iter
    (fun (alabel, instructions, presets) ->
      let levels =
        snd (List.find (fun ((c : Cachesim.Cpu.t), _) -> c.key = cpu.key) presets)
      in
      let miss_cells =
        List.map
          (fun stats ->
            Table.fmt_float ~decimals:2 (Cachesim.Stats.miss_rate_pct stats))
          levels
      in
      Table.add_row detail
        (alabel
        :: miss_cells
        @ [ Table.fmt_float ~decimals:2
              (float_of_int (Cachesim.Cpu.stall_cycles cpu levels) /. 1e6);
            Table.fmt_float ~decimals:2
              (float_of_int (total cpu levels instructions) /. 1e6) ]))
    runs;
  Table.render ranking
  ^ "\nRanking per preset (cheapest first):\n" ^ order ^ "\n\n"
  ^ Table.render detail
  ^ "\nReading: policies are per level (L1 tree-PLRU everywhere; QLRU in\n\
     Skylake-era L2/L3).  Compare against tab4's 1993 ranking to see\n\
     whether segregated storage still wins under three levels of\n\
     pseudo-LRU.\n"
