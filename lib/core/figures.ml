open Metrics

let fig1 (ctx : Context.t) =
  let table =
    Table.create
      ~title:
        "Figure 1: Percent of time in malloc and free (% of executed \
         instructions)"
      ~columns:
        (("Program", Table.Left)
        :: List.map
             (fun (_, label) -> (label, Table.Right))
             Context.paper_allocators)
  in
  List.iter
    (fun (pkey, plabel) ->
      let cells =
        List.map
          (fun (akey, _) ->
            let d = Runs.get ctx.Context.runs ~profile:pkey ~allocator:akey in
            Table.fmt_pct (Artifact.allocator_fraction d))
          Context.paper_allocators
      in
      Table.add_row table (plabel :: cells))
    Context.five_programs;
  Table.render table
  ^ "\nPaper: ranges from a few percent to ~30%, highest for the searching\n\
     allocators and GNU local, lowest for BSD/QuickFit; Make lowest overall.\n"

(* Shared body of Figures 2 and 3. *)
let page_fault_figure (ctx : Context.t) ~profile ~title ~memory_sizes =
  let series =
    Series.create ~title ~x_label:"memory KB" ~y_label:"faults/ref"
  in
  let footprints = Buffer.create 128 in
  List.iter
    (fun (akey, alabel) ->
      let d = Runs.get ctx.Context.runs ~profile ~allocator:akey in
      let pts =
        List.map
          (fun m ->
            ( float_of_int (m / 1024),
              Vmsim.Fault_curve.fault_rate d.Artifact.fault_curve ~memory_bytes:m ))
          memory_sizes
      in
      Series.add series ~name:alabel pts;
      Buffer.add_string footprints
        (Printf.sprintf "  %-10s footprint %s (sbrk %s)\n" alabel
           (Table.fmt_kb (Vmsim.Fault_curve.footprint_bytes d.Artifact.fault_curve))
           (Table.fmt_kb d.Artifact.summary.Artifact.heap_used)))
    Context.paper_allocators;
  Series.render series
  ^ "\nTotal memory touched per allocator (the figures' x-axis markers):\n"
  ^ Buffer.contents footprints

let mem_sweep max_kb =
  (* Dense at the low end where the curves separate. *)
  List.filter (fun k -> k <= max_kb) [ 64; 128; 192; 256; 384; 512; 768;
    1024; 1536; 2048; 2560; 3072; 3584; 4096; 4608; 5120 ]
  |> List.map (fun k -> k * 1024)

let fig2_memory_sizes = mem_sweep 5120

let fig2 ctx =
  page_fault_figure ctx ~profile:"gs-large"
    ~title:"Figure 2: Page fault rate for GhostScript vs physical memory"
    ~memory_sizes:fig2_memory_sizes
  ^ "\nPaper: FirstFit degrades fastest as memory shrinks; BSD needs more\n\
     memory than the others (space waste); QuickFit/GNU local most resilient.\n"

let fig3 ctx =
  page_fault_figure ctx ~profile:"ptc"
    ~title:"Figure 3: Page fault rate for Pascal-to-C vs physical memory"
    ~memory_sizes:(mem_sweep 4096)
  ^ "\nPaper: with no frees the allocators' footprints nearly coincide;\n\
     sequential fit still pays for freelist searches at tight memory.\n"

(* Shared body of Figures 4 and 5. *)
let normalized_figure (ctx : Context.t) ~cache ~title =
  let table =
    Table.create ~title
      ~columns:
        (("Program", Table.Left)
        :: List.concat_map
             (fun (_, label) ->
               [ (label ^ " cpu", Table.Right); (label ^ " +mem", Table.Right) ])
             Context.paper_allocators)
  in
  List.iter
    (fun (pkey, plabel) ->
      let baseline =
        Artifact.exec_time
          (Runs.get ctx.Context.runs ~profile:pkey ~allocator:"firstfit")
          ~model:ctx.Context.model ~cache
      in
      let cells =
        List.concat_map
          (fun (akey, _) ->
            let d = Runs.get ctx.Context.runs ~profile:pkey ~allocator:akey in
            let et = Artifact.exec_time d ~model:ctx.Context.model ~cache in
            [ Table.fmt_float ~decimals:3
                (Exec_time.cpu_normalized_to et ~baseline);
              Table.fmt_float ~decimals:3
                (Exec_time.normalized_to et ~baseline) ])
          Context.paper_allocators
      in
      Table.add_row table (plabel :: cells))
    Context.five_programs;
  Table.render table
  ^ "\n(cpu = instructions only, the shaded bars; +mem = with cache miss\n\
     penalty, the overlay bars; both normalized to FirstFit's +mem time.)\n"

let fig4 ctx =
  normalized_figure ctx ~cache:"16K-dm"
    ~title:
      "Figure 4: Normalized execution time, 16K direct-mapped cache, \
       25-cycle miss penalty"
  ^ "Paper: cache misses change relative performance by up to ~25%;\n\
     FirstFit loses most ground once misses are counted.\n"

let fig5 ctx =
  normalized_figure ctx ~cache:"64K-dm"
    ~title:
      "Figure 5: Normalized execution time, 64K direct-mapped cache, \
       25-cycle miss penalty"
  ^ "Paper: with a larger cache the differences compress but FirstFit\n\
     remains the slowest.\n"

(* Shared body of Figures 6-8. *)
let miss_rate_figure (ctx : Context.t) ~profile ~title =
  let series =
    Series.create ~title ~x_label:"cache KB" ~y_label:"miss rate %"
  in
  List.iter
    (fun (akey, alabel) ->
      let d = Runs.get ctx.Context.runs ~profile ~allocator:akey in
      let pts =
        List.map
          (fun kb ->
            ( float_of_int kb,
              100.
              *. Artifact.miss_rate d ~cache:(string_of_int kb ^ "K-dm") ))
          [ 16; 32; 64; 128; 256 ]
      in
      Series.add series ~name:alabel pts)
    Context.paper_allocators;
  Series.render series

let fig6 ctx =
  miss_rate_figure ctx ~profile:"gs-small"
    ~title:"Figure 6: Data cache miss rate for GhostScript (GS-Small)"
  ^ "\nPaper: differences are muted on the small input; FirstFit still worst.\n"

let fig7 ctx =
  miss_rate_figure ctx ~profile:"gs-medium"
    ~title:"Figure 7: Data cache miss rate for GhostScript (GS-Medium)"

let fig8 ctx =
  miss_rate_figure ctx ~profile:"gs-large"
    ~title:"Figure 8: Data cache miss rate for GhostScript (GS-Large)"
  ^ "\nPaper: FirstFit has much the largest miss ratio at every size; the\n\
     other first-fit variant (GNU G++) is second; the rest are clustered.\n"

let fig9 (ctx : Context.t) =
  ignore ctx;
  let profile = Workload.Programs.find "espresso" in
  let histogram =
    Workload.Dist.to_histogram profile.Workload.Profile.size_dist
      ~scale:100_000
  in
  let classes = Allocators.Size_map.design histogram in
  let heap = Allocators.Heap.create () in
  let map = Allocators.Size_map.create heap ~classes in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 9: Mapping allocation requests with a size-mapping array\n\
     (concrete instance designed from Espresso's measured histogram)\n\n";
  Buffer.add_string buf
    (Printf.sprintf "Size classes (%d): %s\n\n"
       (List.length classes)
       (String.concat ", " (List.map string_of_int classes)));
  Buffer.add_string buf "request -> rounded (class index):\n";
  List.iter
    (fun n ->
      let c = Allocators.Size_map.lookup map n in
      Buffer.add_string buf
        (Printf.sprintf "  %4d -> %4d (class %d)\n" n
           (Allocators.Size_map.class_size map c)
           c))
    [ 1; 8; 12; 13; 24; 25; 40; 41; 100; 256; 1000; 2040 ];
  Buffer.add_string buf
    "\nOne static-array load replaces BSD's power-of-two rounding while\n\
     allowing arbitrary, program-specific size classes (paper 4.4).\n";
  Buffer.contents buf
