(* loclab — reproduce the tables and figures of Grunwald, Zorn &
   Henderson, "Improving the Cache Locality of Memory Allocation"
   (PLDI 1993), from trace-driven simulation of synthetic re-creations
   of the paper's five allocation-intensive programs. *)

open Cmdliner

(* Every shared knob resolves through Core.Context.Options.build with
   precedence flag > LOCLAB_* environment > default, so run, all,
   report, probe, profile and serve agree on semantics.  The
   flags are therefore all optional here: an absent flag lets the
   builder consult the environment. *)

let scale_arg =
  let doc =
    "Workload scale (1.0 = the calibrated full runs, ~1:50 of the paper's \
     instruction counts with absolute retained-heap sizes).  Smaller is \
     faster but noisier; page-fault curves want >= 0.5.  Defaults to \
     $(b,LOCLAB_SCALE), else 0.25."
  in
  Arg.(value & opt (some float) None & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let penalty_arg =
  let doc =
    "Cache miss penalty in cycles.  Defaults to $(b,LOCLAB_PENALTY), else \
     25 (the paper's value)."
  in
  Arg.(value & opt (some int) None & info [ "p"; "penalty" ] ~docv:"CYCLES" ~doc)

let cpu_arg =
  let doc =
    "Modern CPU hierarchy preset detailed by the tabcpu experiment \
     (L1/L2/L3 shapes, replacement policies and latencies).  One of "     ^ String.concat ", " (Cachesim.Cpu.keys ())
    ^ ".  Defaults to $(b,LOCLAB_CPU), else skylake."
  in
  let cpu_conv =
    Arg.enum (List.map (fun (c : Cachesim.Cpu.t) -> (c.key, c)) Cachesim.Cpu.all)
  in
  Arg.(
    value & opt (some cpu_conv) None & info [ "cpu" ] ~docv:"CPU" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for filling the run grid (0 = one per core).  \
     Defaults to $(b,LOCLAB_JOBS), else 1.  Output is bit-identical for \
     every value; jobs only change wall-clock time."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let store_arg =
  let doc =
    "Persistent artifact store directory (created if absent).  Finished \
     grid cells and derived cells (the off-grid experiments' rows) are \
     written through to it and later runs read them back instead of \
     simulating; a warm store renders byte-identically to a cold one.  \
     Defaults to $(b,LOCLAB_STORE); empty means no store."
  in
  Arg.(
    value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let resolve_options ?scale ?penalty ?jobs ?store_dir ?cpu () =
  match Core.Context.Options.build ?scale ?penalty ?jobs ?store_dir ?cpu () with
  | Ok o -> o
  | Error msg ->
      Printf.eprintf "loclab: %s\n" msg;
      exit 2

let open_store dir =
  try Store.open_ dir
  with Sys_error msg ->
    Printf.eprintf "loclab: cannot open store %s: %s\n" dir msg;
    exit 2

let make_ctx (o : Core.Context.Options.t) =
  try Core.Context.of_options o
  with Sys_error msg ->
    Printf.eprintf "loclab: cannot open store: %s\n" msg;
    exit 2

(* Progress and store diagnostics go through Logs; the format reporter
   sends every non-App level to stderr, so table/figure stdout stays
   byte-comparable between warm and cold runs. *)
let setup_logs () = Telemetry.setup_logging ~default:(Some Logs.Info) ()

(* ---- telemetry output ----------------------------------------------- *)

let metrics_out_arg =
  let doc =
    "Write a metrics snapshot to $(docv) after the command finishes \
     (Prometheus text format, or JSON when the file ends in .json) and \
     enable metric recording for the whole run.  Recording is pure \
     observation: tables, figures and stored artifacts are byte-identical \
     with or without it."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Write a Chrome trace-event JSON file to $(docv) after the command \
     finishes (load it in Perfetto or chrome://tracing) and enable span \
     recording — grid cells, pool tasks, store I/O, experiment renders."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let enable_telemetry ~metrics_out ~trace_out =
  if metrics_out <> None then
    Telemetry.Metrics.set_enabled Telemetry.Metrics.default true;
  if trace_out <> None then Telemetry.Span.set_enabled true

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let write_metrics path =
  let snap = Telemetry.Metrics.snapshot Telemetry.Metrics.default in
  let body =
    if Filename.check_suffix path ".json" then Telemetry.Metrics.to_json snap
    else Telemetry.Metrics.to_prometheus snap
  in
  write_file path body;
  Logs.info (fun m -> m "wrote metrics snapshot to %s" path)

let write_trace path =
  Telemetry.Span.write_chrome ~path;
  Logs.info (fun m ->
      m "wrote %d trace events to %s (%d dropped)" (Telemetry.Span.recorded ())
        path
        (Telemetry.Span.dropped ()))

let write_telemetry ~metrics_out ~trace_out =
  Option.iter write_metrics metrics_out;
  Option.iter write_trace trace_out

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let grid_summary ctx =
  let runs = ctx.Core.Context.runs in
  Logs.info (fun m ->
      m "grid: %d cells from store, %d simulated; derived: %d from store, %d \
         computed"
        (Core.Runs.store_hits runs) (Core.Runs.simulated runs)
        (Core.Runs.derived_hits runs)
        (Core.Runs.derived_computed runs))

(* The one route of [run], [all] and [report]: fill every grid cell and
   derived cell the experiments read, the grid in parallel up to
   --jobs, then render each one from the memo.  The fill is logged once
   (grid and derived cells from the store, simulated or computed); each
   render logs the derived cells it resolved itself, which the
   experiments' declarations make none.  [all] and [report] head each experiment with its
   id; [run] prints the bare renderings. *)
let fill_and_render ctx ~headers ids =
  let runs = ctx.Core.Context.runs in
  let (), dt = timed (fun () -> Core.Experiment.warm ctx ids) in
  Logs.info (fun m ->
      m "fill: %d cells from store, %d simulated; derived %d from store, %d \
         computed  %6.2fs"
        (Core.Runs.store_hits runs) (Core.Runs.simulated runs)
        (Core.Runs.derived_hits runs)
        (Core.Runs.derived_computed runs)
        dt);
  List.iter
    (fun id ->
      let dh0 = Core.Runs.derived_hits runs
      and dc0 = Core.Runs.derived_computed runs in
      let out, dt = timed (fun () -> Core.Experiment.run ctx id) in
      Logs.info (fun m ->
          m "%-13s derived +%d store, +%d computed  %6.2fs" id
            (Core.Runs.derived_hits runs - dh0)
            (Core.Runs.derived_computed runs - dc0)
            dt);
      if headers then
        Printf.printf "================ %s ================\n%s\n" id out
      else print_string (out ^ "\n\n"))
    ids;
  grid_summary ctx

(* ---- list ---------------------------------------------------------- *)

let list_cmd =
  let run () =
    print_endline "Experiments (loclab run <id>):";
    List.iter
      (fun e ->
        Printf.printf "  %-14s %-45s [%s]\n" e.Core.Experiment.id
          e.Core.Experiment.title e.Core.Experiment.paper_ref)
      Core.Experiment.all;
    print_endline "\nPrograms (synthetic re-creations, lib/workload):";
    List.iter
      (fun p ->
        Printf.printf "  %-10s %s\n" p.Workload.Profile.key
          p.Workload.Profile.description)
      Workload.Programs.all;
    print_endline "\nAllocators (lib/allocators):";
    List.iter
      (fun s ->
        Printf.printf "  %-15s %s\n" s.Allocators.Registry.key
          s.Allocators.Registry.description)
      Allocators.Registry.all;
    print_endline "\nCPU presets (loclab run --cpu <key> tabcpu):";
    List.iter
      (fun c -> Format.printf "  @[%a@]@." Cachesim.Cpu.pp c)
      Cachesim.Cpu.all
  in
  let doc = "List experiments, programs and allocators." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---- run ----------------------------------------------------------- *)

let run_cmd =
  let ids_arg =
    let doc = "Experiment ids (see $(b,loclab list)); e.g. fig2 tab4." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run scale penalty cpu jobs store_dir metrics_out trace_out ids =
    (* Validate ids before paying for any simulation. *)
    List.iter
      (fun id ->
        match Core.Experiment.find id with
        | _ -> ()
        | exception Not_found ->
            Printf.eprintf "loclab: unknown experiment %S (try: loclab list)\n"
              id;
            exit 2)
      ids;
    enable_telemetry ~metrics_out ~trace_out;
    let ctx =
      make_ctx (resolve_options ?scale ?penalty ?jobs ?store_dir ?cpu ())
    in
    fill_and_render ctx ~headers:false ids;
    write_telemetry ~metrics_out ~trace_out
  in
  let doc = "Regenerate the given tables/figures." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ scale_arg $ penalty_arg $ cpu_arg $ jobs_arg $ store_arg
      $ metrics_out_arg $ trace_out_arg $ ids_arg)

(* ---- all ----------------------------------------------------------- *)

let all_cmd =
  let run scale penalty cpu jobs store_dir metrics_out trace_out =
    enable_telemetry ~metrics_out ~trace_out;
    let ctx =
      make_ctx (resolve_options ?scale ?penalty ?jobs ?store_dir ?cpu ())
    in
    fill_and_render ctx ~headers:true (Core.Experiment.ids ());
    write_telemetry ~metrics_out ~trace_out
  in
  let doc = "Regenerate every table and figure (shares one run grid)." in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const run $ scale_arg $ penalty_arg $ cpu_arg $ jobs_arg $ store_arg
      $ metrics_out_arg $ trace_out_arg)

(* ---- report --------------------------------------------------------- *)

let report_cmd =
  let run scale penalty cpu jobs store_dir metrics_out trace_out =
    enable_telemetry ~metrics_out ~trace_out;
    let o = resolve_options ?scale ?penalty ?jobs ?store_dir ?cpu () in
    let dir =
      match o.Core.Context.Options.store_dir with
      | Some dir -> dir
      | None ->
          Printf.eprintf
            "loclab report: a warm artifact store is required (--store DIR \
             or LOCLAB_STORE).\n";
          exit 2
    in
    let scale = o.Core.Context.Options.scale in
    let ctx = make_ctx o in
    let runs = ctx.Core.Context.runs in
    let wanted =
      List.concat_map (fun e -> e.Core.Experiment.cells) Core.Experiment.all
    in
    let total = List.length (List.sort_uniq compare wanted) in
    (match Core.Runs.load runs wanted with
    | [] -> ()
    | (p, a) :: _ as missing when List.length missing = total ->
        Printf.eprintf
          "loclab report: store %s is cold: all %d grid cells missing at \
           scale %g (first: %s/%s).\n\
           Fill it first:  loclab all --store %s --scale %g\n"
          dir (List.length missing) scale p a dir scale;
        exit 1
    | missing ->
        (* A mostly-warm store with a few corrupt or missing cells
           degrades to re-simulating just those, in parallel up to
           --jobs, and healing the store: never to a failed report. *)
        Logs.warn (fun m ->
            m "store %s: %d of %d grid cells missing or corrupt; \
               re-simulating them" dir (List.length missing) total));
    fill_and_render ctx ~headers:true (Core.Experiment.ids ());
    write_telemetry ~metrics_out ~trace_out
  in
  let doc =
    "Regenerate every table and figure from a warm artifact store with \
     zero simulation: grid cells and the off-grid experiments' derived \
     cells are read back.  A fully cold grid is an error; isolated \
     missing or corrupt grid or derived cells are recomputed and healed \
     (a damaged one with a warning).  $(b,--cpu) and $(b,--penalty) \
     apply at render time and never force a recompute.  Output is \
     byte-identical to $(b,loclab all)."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ scale_arg $ penalty_arg $ cpu_arg $ jobs_arg $ store_arg
      $ metrics_out_arg $ trace_out_arg)

(* ---- store --------------------------------------------------------- *)

let require_store store_dir sub =
  let o = resolve_options ?store_dir () in
  match o.Core.Context.Options.store_dir with
  | Some dir -> open_store dir
  | None ->
      Printf.eprintf "loclab store %s: --store DIR or LOCLAB_STORE required.\n"
        sub;
      exit 2

let short d = if String.length d > 12 then String.sub d 0 12 else d

(* Every namespace of the store (grid cells, then derived cells), each
   with its own sub-store under the root. *)
let namespaces store =
  List.map
    (fun (ns : Core.Runs.namespace) -> (ns, ns.locate store))
    Core.Runs.namespaces

let store_ls_cmd =
  let run store_dir =
    let store = require_store store_dir "ls" in
    List.iter
      (fun ((ns : Core.Runs.namespace), sub) ->
        let digests = Store.ls sub in
        List.iter
          (fun digest ->
            match Store.find sub ~digest with
            | Store.Hit payload -> (
                match ns.describe payload with
                | Ok line ->
                    Printf.printf "%s  %s  %7d bytes\n" (short digest) line
                      (String.length payload)
                | Error reason ->
                    Printf.printf "%s  <unreadable metadata: %s>\n"
                      (short digest) reason)
            | Store.Corrupt reason ->
                Printf.printf "%s  <corrupt: %s>\n" (short digest) reason
            | Store.Miss -> ())
          digests;
        Printf.printf "%d %s cells in %s\n" (List.length digests) ns.name
          (Store.root sub))
      (namespaces store)
  in
  let doc =
    "List the grid and derived cells in the store with their decoded \
     metadata."
  in
  Cmd.v (Cmd.info "ls" ~doc) Term.(const run $ store_arg)

let store_verify_cmd =
  let run store_dir =
    let store = require_store store_dir "verify" in
    let bad = ref 0 and total = ref 0 in
    List.iter
      (fun ((ns : Core.Runs.namespace), sub) ->
        List.iter
          (fun digest ->
            incr total;
            let fail fmt =
              incr bad;
              Printf.printf ("%s  BAD " ^^ fmt ^^ "\n") (short digest)
            in
            match Store.find sub ~digest with
            | Store.Corrupt reason -> fail "frame: %s" reason
            | Store.Miss -> fail "%s" "vanished during verify"
            | Store.Hit payload -> (
                let line = Result.value (ns.describe payload) ~default:"" in
                match ns.check ~digest payload with
                | Ok () ->
                    Printf.printf "%s  ok  %s  %7d bytes\n" (short digest) line
                      (String.length payload)
                | Error (Core.Runs.Stale reason) ->
                    (* Readable but unreachable: digests of the current
                       schema never collide with it.  Not an error. *)
                    Printf.printf "%s  stale %s: %s (%s) — gc'able\n"
                      (short digest) ns.name reason line
                | Error (Core.Runs.Invalid reason) -> fail "%s" reason))
          (Store.ls sub))
      (namespaces store);
    if !bad > 0 then begin
      Printf.printf "%d of %d cells bad\n" !bad !total;
      exit 1
    end
    else Printf.printf "verified %d cells, all ok\n" !total
  in
  let doc =
    "Re-read every grid and derived cell, checking its frame CRC and its \
     namespace's validation rule (decodes under the current schema, key \
     digests to its filename); exits 1 if any cell is bad."
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ store_arg)

let store_gc_cmd =
  let run store_dir =
    let store = require_store store_dir "gc" in
    let removed, kept =
      List.fold_left
        (fun (removed, kept) ((ns : Core.Runs.namespace), sub) ->
          let gone =
            Store.gc sub ~keep:(fun ~digest ~payload ->
                Result.is_ok (ns.check ~digest payload))
          in
          List.iter
            (fun f ->
              Printf.printf "removed %s\n" (Filename.concat (Store.root sub) f))
            gone;
          ( removed + List.length gone,
            kept
            @ [ Printf.sprintf "%d %s cells" (List.length (Store.ls sub))
                  ns.name ] ))
        (0, []) (namespaces store)
    in
    Printf.printf "%d files removed, kept %s\n" removed
      (String.concat " and " kept)
  in
  let doc =
    "Remove corrupt cells, leftover temp files, foreign-schema cells \
     and misfiled cells, in the grid and derived namespaces alike."
  in
  Cmd.v (Cmd.info "gc" ~doc) Term.(const run $ store_arg)

let store_export_cmd =
  let format_arg =
    let doc = "Output format: $(b,jsonl) (one object per cell) or $(b,csv) \
               (long format, one row per cell x cache config)." in
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("csv", `Csv) ]) `Jsonl
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let run store_dir format =
    let store = require_store store_dir "export" in
    let artifacts =
      List.filter_map
        (fun digest ->
          match Store.find store ~digest with
          | Store.Hit payload -> (
              match Core.Artifact.decode payload with
              | Ok a -> Some a
              | Error reason ->
                  Logs.warn (fun m ->
                      m "export: skipping %s (%s)" (short digest) reason);
                  None)
          | Store.Miss | Store.Corrupt _ -> None)
        (Store.ls store)
    in
    let coord (a : Core.Artifact.t) =
      let m = a.Core.Artifact.meta in
      (m.Core.Artifact.program, m.Core.Artifact.allocator, m.Core.Artifact.scale)
    in
    let artifacts =
      List.sort (fun a b -> compare (coord a) (coord b)) artifacts
    in
    (match format with
    | `Jsonl ->
        List.iter (fun a -> print_endline (Core.Artifact.to_json a)) artifacts
    | `Csv ->
        print_endline (Metrics.Export.csv_row Core.Artifact.csv_header);
        List.iter
          (fun a ->
            List.iter
              (fun row -> print_endline (Metrics.Export.csv_row row))
              (Core.Artifact.to_csv_rows a))
          artifacts);
    Logs.info (fun m -> m "exported %d cells" (List.length artifacts))
  in
  let doc = "Export every decodable cell as JSON-lines or CSV on stdout." in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ store_arg $ format_arg)

let store_cmd =
  let doc = "Inspect and maintain a persistent artifact store." in
  Cmd.group (Cmd.info "store" ~doc)
    [ store_ls_cmd; store_verify_cmd; store_gc_cmd; store_export_cmd ]

(* ---- probe --------------------------------------------------------- *)

(* A cell's (program, allocator) pair, checked as serve checks it. *)
let check_cell ~program ~allocator =
  match Core.Runs.check_cell ~program ~allocator with
  | Ok profile -> profile
  | Error e ->
      Printf.eprintf "loclab: %s\n" (Core.Runs.cell_error_message e);
      exit 2

let probe_cmd =
  let program_arg =
    let doc = "Program profile key (see $(b,loclab list))." in
    Arg.(value & opt string "gs-large" & info [ "program" ] ~docv:"KEY" ~doc)
  in
  let alloc_arg =
    let doc = "Allocator key (see $(b,loclab list))." in
    Arg.(value & opt string "quickfit" & info [ "allocator" ] ~docv:"KEY" ~doc)
  in
  let run scale penalty store_dir program allocator =
    ignore (check_cell ~program ~allocator);
    let o = resolve_options ?scale ?penalty ?store_dir () in
    let ctx = make_ctx o in
    let d = Core.Runs.get ctx.Core.Context.runs ~profile:program ~allocator in
    let s = d.Core.Artifact.summary in
    let st = d.Core.Artifact.alloc_stats in
    Printf.printf "%s under %s (scale %.2f)\n" program allocator
      o.Core.Context.Options.scale;
    Printf.printf "  cell digest       %s (schema %d, trace checksum %x)\n"
      (Core.Artifact.digest_of_meta d.Core.Artifact.meta)
      d.Core.Artifact.meta.Core.Artifact.schema_version
      d.Core.Artifact.meta.Core.Artifact.trace_checksum;
    Printf.printf "  instructions      %s (app %s, malloc %s, free %s)\n"
      (Metrics.Table.fmt_int s.Core.Artifact.instructions)
      (Metrics.Table.fmt_int s.Core.Artifact.app_instructions)
      (Metrics.Table.fmt_int s.Core.Artifact.malloc_instructions)
      (Metrics.Table.fmt_int s.Core.Artifact.free_instructions);
    Printf.printf "  data references   %s (allocator %s)\n"
      (Metrics.Table.fmt_int s.Core.Artifact.data_refs)
      (Metrics.Table.fmt_int s.Core.Artifact.allocator_refs);
    Printf.printf "  time in alloc     %s\n"
      (Metrics.Table.fmt_pct (Core.Artifact.allocator_fraction d));
    Printf.printf "  objects           %s allocated, %s freed\n"
      (Metrics.Table.fmt_int st.Allocators.Alloc_stats.malloc_calls)
      (Metrics.Table.fmt_int st.Allocators.Alloc_stats.free_calls);
    Printf.printf "  heap              sbrk %s, max live %s, frag %s\n"
      (Metrics.Table.fmt_kb s.Core.Artifact.heap_used)
      (Metrics.Table.fmt_kb s.Core.Artifact.max_live_bytes)
      (Metrics.Table.fmt_pct
         (Allocators.Alloc_stats.internal_fragmentation st));
    List.iter
      (fun (cfg, s) ->
        Printf.printf "  %-9s miss rate %6.3f%%  (app %.3f%%, alloc %.3f%%)\n"
          cfg.Cachesim.Config.name
          (Cachesim.Stats.miss_rate_pct s)
          (100. *. Cachesim.Stats.source_miss_rate s Memsim.Event.App)
          (100.
          *. (let a =
                s.Cachesim.Stats.malloc_accesses
                + s.Cachesim.Stats.free_accesses
              and m =
                s.Cachesim.Stats.malloc_misses + s.Cachesim.Stats.free_misses
              in
              if a = 0 then 0. else float_of_int m /. float_of_int a)))
      d.Core.Artifact.caches;
    let et64 =
      Core.Artifact.exec_time d ~model:ctx.Core.Context.model ~cache:"64K-dm"
    in
    Printf.printf "  est. time (64K)   %.3f s (%.3f s in misses)\n"
      (Metrics.Exec_time.total_seconds et64)
      (Metrics.Exec_time.miss_seconds et64)
  in
  let doc = "Deep-dive one (program, allocator) pair." in
  Cmd.v (Cmd.info "probe" ~doc)
    Term.(
      const run $ scale_arg $ penalty_arg $ store_arg $ program_arg $ alloc_arg)

(* ---- record ------------------------------------------------------- *)

let record_cmd =
  let program_arg =
    let doc = "Program profile key." in
    Arg.(value & opt string "espresso" & info [ "program" ] ~docv:"KEY" ~doc)
  in
  let alloc_arg =
    let doc = "Allocator key." in
    Arg.(value & opt string "quickfit" & info [ "allocator" ] ~docv:"KEY" ~doc)
  in
  let out_arg =
    let doc = "Output trace file." in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run scale program allocator out =
    let profile = check_cell ~program ~allocator in
    let scale = (resolve_options ?scale ()).Core.Context.Options.scale in
    (* The driver builds the allocator as the grid does, so a capture
       of "custom" is the custom cell's stream. *)
    let result =
      Out_channel.with_open_bin out @@ fun oc ->
      Memsim.Trace.record ~format:Memsim.Trace.Source.Binary oc (fun sink ->
          Workload.Driver.run ~sink ~scale ~profile ~allocator ())
    in
    Printf.printf "recorded %s events (%s, %s, scale %.2f) to %s\n"
      (Metrics.Table.fmt_int result.Workload.Driver.data_refs)
      program allocator scale out
  in
  let doc = "Record a workload's reference trace to a file." in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(const run $ scale_arg $ program_arg $ alloc_arg $ out_arg)

(* ---- trace ----------------------------------------------------------- *)

let trace_format_conv = Arg.enum Memsim.Trace.Source.all_formats

let trace_file_arg =
  let doc = "Trace file: recorded binary, cachetrace text \
             ($(b,R 0xADDR) / $(b,W 0xADDR) lines) or per-access CSV." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Input trace format ($(b,binary) | $(b,text) | $(b,csv)).  Sniffed \
     from the file's leading bytes when absent."
  in
  Arg.(
    value
    & opt (some trace_format_conv) None
    & info [ "format" ] ~docv:"FORMAT" ~doc)

let slurp_trace path =
  try Memsim.Trace.slurp path
  with Sys_error msg ->
    Printf.eprintf "loclab: cannot read %s: %s\n" path msg;
    exit 2

let resolve_trace_format format data =
  match format with
  | Some f -> f
  | None -> Memsim.Trace.Source.sniff data

(* The one route from a capture file to its cell, for [trace import]
   and [trace run]: read it once, pick its format, resolve the cell.  A
   malformed capture is a one-line error, exit 2. *)
let ingest_trace ctx format file =
  let data = slurp_trace file in
  let fmt = resolve_trace_format format data in
  match Core.Runs.ingest ctx.Core.Context.runs ~format:fmt ~data with
  | exception Failure msg ->
      Printf.eprintf "loclab: %s\n" msg;
      exit 2
  | art -> (fmt, data, art)

let trace_import_cmd =
  let run store_dir format file =
    let ctx = make_ctx (resolve_options ?store_dir ()) in
    let fmt, data, art = ingest_trace ctx format file in
    let m = art.Core.Artifact.meta in
    Printf.printf "digest %s\n" (Core.Artifact.digest_of_meta m);
    Printf.printf "cell   %s (%s capture, %s bytes, %s events)\n"
      m.Core.Artifact.program
      (Memsim.Trace.Source.format_to_string fmt)
      (Metrics.Table.fmt_int (String.length data))
      (Metrics.Table.fmt_int art.Core.Artifact.summary.Core.Artifact.data_refs);
    grid_summary ctx
  in
  let doc =
    "Import an external trace: simulate it across the standard cache \
     sweep (or answer from the store when the same event stream was seen \
     before, under any capture format) and print its cell digest."
  in
  Cmd.v (Cmd.info "import" ~doc)
    Term.(const run $ store_arg $ trace_format_arg $ trace_file_arg)

let trace_export_cmd =
  let to_arg =
    let doc =
      "Output trace format ($(b,binary) | $(b,text) | $(b,csv)).  Text \
       and CSV carry kind and address only; binary is lossless."
    in
    Arg.(
      required
      & opt (some trace_format_conv) None
      & info [ "to" ] ~docv:"FORMAT" ~doc)
  in
  let out_arg =
    let doc = "Output file (stdout when absent)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run format target out file =
    let data = slurp_trace file in
    let fmt = resolve_trace_format format data in
    (* A streaming transcode: the reader's packed batches feed the
       target encoder, drained to the output in bounded chunks.  A
       malformed capture leaves no output file behind. *)
    let export oc =
      Memsim.Trace.record ~format:target oc (fun sink ->
          ignore (Memsim.Trace.read fmt data sink))
    in
    let fail msg =
      Printf.eprintf "loclab: %s\n" msg;
      exit 2
    in
    match out with
    | None -> ( try export stdout with Failure msg -> fail msg)
    | Some path -> (
        match
          Out_channel.with_open_bin path (fun oc ->
              export oc;
              Out_channel.pos oc)
        with
        | exception Failure msg ->
            Sys.remove path;
            fail msg
        | bytes ->
            Printf.printf "wrote %s (%s, %s bytes)\n" path
              (Memsim.Trace.Source.format_to_string target)
              (Metrics.Table.fmt_int (Int64.to_int bytes)))
  in
  let doc = "Transcode a trace between capture formats." in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(
      const run $ trace_format_arg $ to_arg $ out_arg $ trace_file_arg)

let trace_run_cmd =
  let run store_dir format file =
    let ctx = make_ctx (resolve_options ?store_dir ()) in
    let _, _, art = ingest_trace ctx format file in
    print_endline (Core.Ingest.report art);
    grid_summary ctx
  in
  let doc =
    "Import an external trace and render its full per-cell report \
     (provenance, stream identity, cache sweep, hierarchy, footprint)."
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ store_arg $ trace_format_arg $ trace_file_arg)

let trace_cmd =
  let doc =
    "Work with external reference traces: import (simulate + store), \
     export (transcode between text, CSV and binary captures) \
     and run (render the full report)."
  in
  Cmd.group (Cmd.info "trace" ~doc)
    [ trace_import_cmd; trace_export_cmd; trace_run_cmd ]

(* ---- profile -------------------------------------------------------- *)

(* One profiled cell: the grid's own driver pass and consumer set
   ({!Core.Runs.simulate_cell}), tapped by a window probe that appends
   one CSV row per series to [rows] at each window's close.  Returns
   the cell and the windows it closed. *)
let profile_cell ~rows ~scale ~window ~program ~allocator =
  let add_row ~window ~events name value =
    Buffer.add_string rows
      (Metrics.Export.csv_row
         [ program; allocator; string_of_int window; string_of_int events;
           name; value ]);
    Buffer.add_char rows '\n'
  in
  (* Per-window deltas need the previous cumulative readings. *)
  let windows = ref None in
  let tap ~caches ~footprint_bytes ~alloc =
    let counter = Memsim.Sink.Counter.create () in
    let prev_cache = List.map (fun _ -> (ref 0, ref 0)) (caches ()) in
    let prev_src =
      List.map
        (fun (key, src) -> (key, src, ref 0))
        [ ("app", Memsim.Event.App);
          ("malloc", Memsim.Event.Malloc);
          ("free", Memsim.Event.Free) ]
    in
    let sample ~window ~events =
      List.iter2
        (fun (cfg, (st : Cachesim.Stats.t)) (pa, pm) ->
          let da = st.Cachesim.Stats.accesses - !pa
          and dm = st.Cachesim.Stats.misses - !pm in
          pa := st.Cachesim.Stats.accesses;
          pm := st.Cachesim.Stats.misses;
          let rate =
            if da = 0 then 0. else 100. *. float_of_int dm /. float_of_int da
          in
          add_row ~window ~events
            ("miss_rate:" ^ cfg.Cachesim.Config.name)
            (Printf.sprintf "%.4f" rate))
        (caches ()) prev_cache;
      List.iter
        (fun (key, src, before) ->
          let now = Memsim.Sink.Counter.by_source counter src in
          add_row ~window ~events ("refs:" ^ key)
            (string_of_int (now - !before));
          before := now)
        prev_src;
      add_row ~window ~events "live_bytes"
        (string_of_int
           (Allocators.Allocator.stats alloc).Allocators.Alloc_stats.live_bytes);
      add_row ~window ~events "footprint_bytes"
        (string_of_int (footprint_bytes ()))
    in
    let w = Telemetry.Probe.Windows.create ~every:window ~f:sample in
    windows := Some w;
    [ Memsim.Sink.Counter.sink counter; Telemetry.Probe.Windows.sink w ]
  in
  let art =
    Core.Runs.simulate_cell ~tap ~scale ~profile:program ~allocator ()
  in
  let w = Option.get !windows in
  Telemetry.Probe.Windows.flush w;
  (art, Telemetry.Probe.Windows.windows_fired w)

let profile_cmd =
  let program_arg =
    let doc = "Program profile key (see $(b,loclab list))." in
    Arg.(value & opt string "espresso" & info [ "program" ] ~docv:"KEY" ~doc)
  in
  let allocs_arg =
    let doc = "Comma-separated allocator keys to profile side by side." in
    Arg.(
      value
      & opt string "firstfit,quickfit"
      & info [ "allocators" ] ~docv:"KEYS" ~doc)
  in
  let window_arg =
    let doc = "Events per probe window (the time-series resolution)." in
    Arg.(value & opt int 100_000 & info [ "window" ] ~docv:"EVENTS" ~doc)
  in
  let series_out_arg =
    let doc = "Per-window time-series CSV output file." in
    Arg.(
      value
      & opt string "loclab-series.csv"
      & info [ "series-out" ] ~docv:"FILE" ~doc)
  in
  let pmetrics_arg =
    let doc = "Metrics snapshot output (Prometheus text, JSON if .json)." in
    Arg.(
      value
      & opt string "loclab-metrics.prom"
      & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let ptrace_arg =
    let doc = "Chrome trace-event JSON output (Perfetto-loadable)." in
    Arg.(
      value
      & opt string "loclab-trace.json"
      & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let run scale program allocs window series_out metrics_out trace_out =
    let scale = (resolve_options ?scale ()).Core.Context.Options.scale in
    if window < 1 then begin
      Printf.eprintf "loclab: window must be >= 1\n";
      exit 2
    end;
    let allocators =
      String.split_on_char ',' allocs
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    if allocators = [] then begin
      Printf.eprintf "loclab: no allocators given\n";
      exit 2
    end;
    List.iter
      (fun allocator -> ignore (check_cell ~program ~allocator))
      allocators;
    Telemetry.Metrics.set_enabled Telemetry.Metrics.default true;
    Telemetry.Span.set_enabled true;
    let rows = Buffer.create 65536 in
    Buffer.add_string rows
      (Metrics.Export.csv_row
         [ "program"; "allocator"; "window"; "events"; "series"; "value" ]);
    Buffer.add_char rows '\n';
    Printf.printf "profiling %s at scale %g, %d-event windows\n" program scale
      window;
    List.iter
      (fun allocator ->
        let art, fired =
          profile_cell ~rows ~scale ~window ~program ~allocator
        in
        let h = Allocators.Alloc_metrics.search_length ~allocator in
        Printf.printf
          "  %-12s %s refs, %d windows; fit searches: %s, mean length %.2f\n"
          allocator
          (Metrics.Table.fmt_int art.Core.Artifact.summary.Core.Artifact.data_refs)
          fired
          (Metrics.Table.fmt_int (Telemetry.Metrics.Histogram.count h))
          (Telemetry.Metrics.Histogram.mean h))
      allocators;
    let csv = Buffer.contents rows in
    write_file series_out csv;
    write_metrics metrics_out;
    write_trace trace_out;
    (* Every row, the header included, ends in a newline. *)
    let nrows =
      String.fold_left (fun n c -> if c = '\n' then n + 1 else n) (-1) csv
    in
    Printf.printf "wrote %s (%d rows), %s, %s\n" series_out nrows metrics_out
      trace_out
  in
  let doc =
    "Run one or more (program, allocator) cells with every probe on: \
     windowed miss-rate / reference-mix / footprint time series (CSV), \
     allocator-internal metrics (Prometheus snapshot) and a span trace \
     (Chrome JSON for Perfetto).  Profiling never changes simulation \
     results; it only observes them."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ scale_arg $ program_arg $ allocs_arg $ window_arg
      $ series_out_arg $ pmetrics_arg $ ptrace_arg)

(* ---- serve / client -------------------------------------------------- *)

let default_listen = "unix:/tmp/loclab.sock"

let parse_addr s =
  match Serve.Protocol.addr_of_string s with
  | Ok addr -> addr
  | Error msg ->
      Printf.eprintf "loclab: bad address %S: %s\n" s msg;
      exit 2

let serve_cmd =
  let listen_arg =
    let doc =
      "Listen address: $(b,unix:PATH), $(b,tcp:HOST:PORT) (port 0 picks a \
       free one), or a bare socket path."
    in
    Arg.(value & opt string default_listen & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let access_log_arg =
    let doc =
      "Write one JSON object per served request to $(docv) ($(b,-) = \
       stdout): timestamp, request id, peer, kind, per-stage durations, \
       outcome, bytes, warm/cold."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"PATH" ~doc)
  in
  let run jobs store_dir listen access_log =
    let o = resolve_options ?jobs ?store_dir () in
    let addr = parse_addr listen in
    let store = Option.map open_store o.Core.Context.Options.store_dir in
    let server =
      try
        Serve.Server.create ~jobs:o.Core.Context.Options.jobs ?store
          ?access_log ~listen:addr ()
      with
      | Failure msg ->
          Printf.eprintf "loclab serve: %s\n" msg;
          exit 2
      | Unix.Unix_error (err, _, _) ->
          Printf.eprintf "loclab serve: cannot listen on %s: %s\n"
            (Serve.Protocol.addr_to_string addr)
            (Unix.error_message err);
          exit 2
    in
    (* Ctrl-C / kill -INT drain gracefully: accepted requests finish,
       replies are written, then the process exits 0.  A second signal
       during the drain is harmless (shutdown is idempotent). *)
    let graceful = Sys.Signal_handle (fun _ -> Serve.Server.shutdown server) in
    Sys.set_signal Sys.sigint graceful;
    Sys.set_signal Sys.sigterm graceful;
    Printf.printf "listening on %s\n%!"
      (Serve.Protocol.addr_to_string (Serve.Server.listen_addr server));
    Serve.Server.run server
  in
  let doc =
    "Serve simulations over a versioned binary protocol (plus plain HTTP \
     $(b,GET /metrics), $(b,GET /health) and $(b,GET /status) on the same \
     address).  Cell requests are answered from the artifact store when \
     warm and simulated on worker domains — with store write-through — \
     when cold.  Every request is traced end to end; see \
     $(b,--access-log) and $(b,loclab top)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ jobs_arg $ store_arg $ listen_arg $ access_log_arg)

let client_cmd =
  let connect_arg =
    let doc = "Server address (as $(b,loclab serve --listen))." in
    Arg.(
      value & opt string default_listen & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let out_arg =
    let doc =
      "Write the fetched artifact bytes to $(docv) (cell and ingest only)."
    in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let action_arg =
    let doc =
      "$(b,health) | $(b,cell) PROGRAM ALLOCATOR | $(b,experiment) ID | \
       $(b,ingest) FILE [FORMAT]"
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ACTION" ~doc)
  in
  let timeout_arg =
    let doc =
      "Receive timeout in seconds (0 = wait forever): a wedged server \
       fails the request instead of hanging the client."
    in
    Arg.(
      value
      & opt float 0.
      & info [ "timeout" ]
          ~env:(Cmd.Env.info "LOCLAB_CLIENT_TIMEOUT")
          ~docv:"SECONDS" ~doc)
  in
  let request_id_arg =
    let doc =
      "Send this request id (1-32 hex digits) instead of generating one."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "request-id" ] ~docv:"HEX" ~doc)
  in
  let run scale connect out timeout request_id action =
    let o = resolve_options ?scale () in
    let scale = o.Core.Context.Options.scale in
    let addr = parse_addr connect in
    let timeout = if timeout > 0. then Some timeout else None in
    let rid =
      match request_id with
      | Some id when Telemetry.Rctx.valid_id id -> String.lowercase_ascii id
      | Some id ->
          Printf.eprintf
            "loclab client: bad request id %S (want 1-32 hex digits)\n" id;
          exit 2
      | None -> Telemetry.Rctx.fresh_id ()
    in
    let req =
      match action with
      | [ "health" ] -> Serve.Protocol.Health
      | [ "cell"; program; allocator ] ->
          Serve.Protocol.Run_cell { program; allocator; scale }
      | [ "experiment"; id ] -> Serve.Protocol.Run_experiment { id; scale }
      | "ingest" :: file :: rest ->
          let trace = slurp_trace file in
          let format =
            match rest with
            | [] ->
                Memsim.Trace.Source.format_to_string
                  (Memsim.Trace.Source.sniff trace)
            | [ f ] -> f
            | _ ->
                Printf.eprintf "loclab client: ingest takes FILE [FORMAT]\n";
                exit 2
          in
          Serve.Protocol.Ingest { format; trace }
      | _ ->
          Printf.eprintf
            "loclab client: expected health | cell PROGRAM ALLOCATOR | \
             experiment ID | ingest FILE [FORMAT]\n";
          exit 2
    in
    (* The id goes to stderr so stdout stays the payload (digests,
       reports, artifacts) scripts already parse. *)
    Printf.eprintf "request id %s\n%!" rid;
    let reply =
      try
        Serve.Client.with_connection ?timeout addr (fun c ->
            Serve.Client.request ~id:rid c req)
      with Unix.Unix_error (err, _, _) ->
        Printf.eprintf "loclab client: cannot connect to %s: %s\n"
          (Serve.Protocol.addr_to_string addr)
          (Unix.error_message err);
        exit 1
    in
    match reply with
    | Error err ->
        Printf.eprintf "loclab client: %s\n"
          (Serve.Client.error_to_string err);
        exit 1
    | Ok (Serve.Protocol.Error { code; message }) ->
        Printf.eprintf "loclab client: server error (%s): %s\n"
          (Serve.Protocol.error_code_to_string code)
          message;
        exit 1
    | Ok (Serve.Protocol.Health_ok { server_version; protocol_version }) ->
        Printf.printf "ok: %s (protocol %d)\n" server_version protocol_version
    | Ok (Serve.Protocol.Report_ok text) -> print_string text
    | Ok (Serve.Protocol.Cell_ok { digest; artifact }) -> (
        Printf.printf "digest %s\n" digest;
        (match Core.Artifact.decode_meta artifact with
        | Ok m ->
            Printf.printf "cell   %s/%s scale %g seed %d schema %d (%d bytes)\n"
              m.Core.Artifact.program m.Core.Artifact.allocator
              m.Core.Artifact.scale m.Core.Artifact.seed
              m.Core.Artifact.schema_version (String.length artifact)
        | Error reason ->
            Printf.eprintf "loclab client: undecodable artifact: %s\n" reason;
            exit 1);
        match out with
        | None -> ()
        | Some path ->
            write_file path artifact;
            Printf.printf "wrote %s\n" path)
  in
  let doc =
    "Query a running $(b,loclab serve): health, one grid cell (printing \
     its digest, optionally saving the artifact bytes), a rendered \
     experiment, or an external trace ingestion.  \
     Requests carry a generated (or $(b,--request-id)) trace id, printed \
     to stderr, that the server's access log, $(b,/status) slow-request \
     table and span trace all key on.  Server counters and metrics are \
     on $(b,loclab top) and the plain-HTTP $(b,/status) and \
     $(b,/metrics)."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ scale_arg $ connect_arg $ out_arg $ timeout_arg
      $ request_id_arg $ action_arg)

(* ---- top -------------------------------------------------------------- *)

(* A refreshing terminal view over a running server's /status
   document — enough of a dashboard for a terminal, with no scraping
   stack required. *)

let fmt_us us =
  if Float.is_nan us || us <= 0. then "-"
  else if us < 1000. then Printf.sprintf "%.0fus" us
  else if us < 1e6 then Printf.sprintf "%.1fms" (us /. 1e3)
  else Printf.sprintf "%.2fs" (us /. 1e6)

let render_top ~addr_text ~status b =
  let open Metrics.Export in
  (* The field of [j] at [path], or [d] when it is absent or mistyped. *)
  let at conv d j path =
    let v =
      List.fold_left (fun acc k -> Option.bind acc (member k)) (Some j) path
    in
    Option.value ~default:d (Option.bind v conv)
  in
  let int j path = at to_int_opt 0 j path
  and float j path = at to_float_opt 0. j path
  and str j path = at to_string_opt "?" j path
  and list path = at to_list_opt [] status path in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "loclab top — %s — %s" addr_text
    (Telemetry.Rctx.iso8601 (Unix.gettimeofday ()));
  line "%s  protocol %d  artifact schema %d  up %.1fs"
    (str status [ "server"; "version" ])
    (int status [ "server"; "protocol" ])
    (int status [ "server"; "artifact_schema" ])
    (float status [ "server"; "uptime_seconds" ]);
  line "";
  line "requests  total %d  errors %d  inflight %d  warm %d  simulated %d"
    (int status [ "requests"; "total" ])
    (int status [ "requests"; "errors" ])
    (int status [ "requests"; "inflight" ])
    (int status [ "requests"; "warm_cells" ])
    (int status [ "requests"; "simulated_cells" ]);
  (match
     at (function Obj kinds -> Some kinds | _ -> None) [] status
       [ "requests"; "kinds" ]
   with
  | [] -> ()
  | kinds ->
      line "kinds     %s"
        (String.concat "  "
           (List.map (fun (k, v) -> Printf.sprintf "%s %d" k (int v [])) kinds)));
  line "latency   p50 %s  p90 %s  p99 %s  (n=%d, mean %s)"
    (fmt_us (float status [ "latency_us"; "p50" ]))
    (fmt_us (float status [ "latency_us"; "p90" ]))
    (fmt_us (float status [ "latency_us"; "p99" ]))
    (int status [ "latency_us"; "count" ])
    (fmt_us (float status [ "latency_us"; "mean" ]));
  line "spans     recorded %d  dropped %d"
    (int status [ "spans"; "recorded" ])
    (int status [ "spans"; "dropped" ]);
  (match member "access_log" status with
  | Some (Obj _ as a) ->
      line "access    written %d  write_errors %d" (int a [ "written" ])
        (int a [ "write_errors" ])
  | _ -> ());
  let stages = list [ "stages" ] in
  if stages <> [] then begin
    line "";
    line "%-20s %8s %10s %10s" "stage" "count" "p50" "p99";
    List.iter
      (fun s ->
        line "%-20s %8d %10s %10s" (str s [ "stage" ]) (int s [ "count" ])
          (fmt_us (float s [ "p50_us" ]))
          (fmt_us (float s [ "p99_us" ])))
      stages
  end;
  line "";
  line "connections (%d open)" (int status [ "connections"; "open" ]);
  List.iter
    (fun c -> line "  cid %-4d peer %s" (int c [ "cid" ]) (str c [ "peer" ]))
    (list [ "connections"; "peers" ]);
  (match list [ "single_flight" ] with
  | [] -> ()
  | keys ->
      line "single-flight (%d)" (List.length keys);
      List.iter (fun k -> line "  %s" (str k [])) keys);
  match list [ "slow_requests" ] with
  | [] -> ()
  | slow ->
      line "";
      line "%-18s %9s %-10s %-8s %s" "slowest" "total" "kind" "outcome"
        "cell";
      List.iter
        (fun r ->
          line "%-18s %9s %-10s %-8s %s" (str r [ "request_id" ])
            (fmt_us (float r [ "total_us" ]))
            (str r [ "kind" ]) (str r [ "outcome" ])
            (at to_string_opt "-" r [ "cell" ]))
        slow

let top_cmd =
  let connect_arg =
    let doc = "Server address (as $(b,loclab serve --listen))." in
    Arg.(
      value & opt string default_listen & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let interval_arg =
    let doc = "Refresh interval in seconds." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let once_arg =
    let doc = "Render one snapshot and exit (no screen clearing)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let run connect interval once =
    let addr = parse_addr connect in
    let addr_text = Serve.Protocol.addr_to_string addr in
    let fetch path =
      match Serve.Client.http_get ~timeout:5.0 addr path with
      | Ok body -> body
      | Error err ->
          Printf.eprintf "loclab top: %s: %s\n" path
            (Serve.Client.error_to_string err);
          exit 1
    in
    let snapshot () =
      match Metrics.Export.of_string (fetch "/status") with
      | Error msg ->
          Printf.eprintf "loclab top: undecodable /status: %s\n" msg;
          exit 1
      | Ok status ->
          let b = Buffer.create 1024 in
          render_top ~addr_text ~status b;
          Buffer.contents b
    in
    if once then print_string (snapshot ())
    else begin
      let rec loop () =
        let body = snapshot () in
        (* Clear + home, then the frame: flicker-free enough without a
           curses dependency. *)
        Printf.printf "\027[2J\027[H%s%!" body;
        Unix.sleepf (Float.max 0.1 interval);
        loop ()
      in
      loop ()
    end
  in
  let doc =
    "Live terminal view of a running $(b,loclab serve): polls \
     $(b,/status) over the server's plain-HTTP side and renders RED \
     counters, requests by kind, latency and per-stage quantiles, open \
     connections, in-flight single-flight keys and the slowest \
     requests.  $(b,--once) prints a single snapshot (for scripts and \
     CI)."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const run $ connect_arg $ interval_arg $ once_arg)

let main =
  let doc =
    "Reproduction of 'Improving the Cache Locality of Memory Allocation' \
     (PLDI 1993)"
  in
  let info = Cmd.info "loclab" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ list_cmd; run_cmd; all_cmd; report_cmd; store_cmd; probe_cmd;
      profile_cmd; record_cmd; trace_cmd; serve_cmd; client_cmd;
      top_cmd ]

let () =
  setup_logs ();
  exit (Cmd.eval main)
