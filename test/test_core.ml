(* Tests for the core experiment layer.  These run real (tiny-scale)
   simulations, so they double as end-to-end integration tests of the
   whole stack: workload -> allocator -> trace -> cache/page simulators
   -> experiment rendering. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One tiny shared context: the memoized grid makes the suite cheap. *)
let ctx = Core.Context.create ~scale:0.02 ()

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Runs                                                               *)
(* ------------------------------------------------------------------ *)

let test_runs_memoized () =
  let a = Core.Runs.get ctx.Core.Context.runs ~profile:"make" ~allocator:"bsd" in
  let b = Core.Runs.get ctx.Core.Context.runs ~profile:"make" ~allocator:"bsd" in
  check_bool "same physical data" true (a == b)

let test_runs_all_configs_present () =
  let d = Core.Runs.get ctx.Core.Context.runs ~profile:"make" ~allocator:"bsd" in
  List.iter
    (fun cfg ->
      let name = cfg.Cachesim.Config.name in
      let s = Core.Artifact.cache_stats d ~name in
      check_bool (name ^ " saw traffic") true (s.Cachesim.Stats.accesses > 0))
    Core.Runs.standard_configs;
  check_bool "pages saw traffic" true
    (d.Core.Artifact.fault_curve.Vmsim.Fault_curve.references > 0)

let test_runs_standard_configs_lru () =
  (* A cell's cache sweep is the forest families and nothing else. *)
  List.iter
    (fun (cfg : Cachesim.Config.t) ->
      check_bool (cfg.name ^ " is LRU") true (Cachesim.Policy.is_lru cfg.policy))
    Core.Runs.standard_configs

let test_runs_page_and_cache_counts_agree () =
  let d = Core.Runs.get ctx.Core.Context.runs ~profile:"make" ~allocator:"bsd" in
  check_int "page sim sees every reference event"
    d.Core.Artifact.summary.Core.Artifact.data_refs
    d.Core.Artifact.fault_curve.Vmsim.Fault_curve.references

let test_runs_miss_rate_decreases_with_size () =
  let d =
    Core.Runs.get ctx.Core.Context.runs ~profile:"espresso" ~allocator:"firstfit"
  in
  let r16 = Core.Artifact.miss_rate d ~cache:"16K-dm" in
  let r256 = Core.Artifact.miss_rate d ~cache:"256K-dm" in
  check_bool "16K worse than 256K" true (r16 >= r256)

let test_runs_exec_time_uses_misses () =
  let d = Core.Runs.get ctx.Core.Context.runs ~profile:"make" ~allocator:"bsd" in
  let et16 =
    Core.Artifact.exec_time d ~model:ctx.Core.Context.model ~cache:"16K-dm"
  in
  let et256 =
    Core.Artifact.exec_time d ~model:ctx.Core.Context.model ~cache:"256K-dm"
  in
  check_bool "bigger cache, less time" true
    (Metrics.Exec_time.total_cycles et256
    <= Metrics.Exec_time.total_cycles et16)

let test_runs_bad_scale_rejected () =
  (* A real invalid_arg, not an assert: must hold under -noassert too. *)
  let rejects scale =
    match Core.Runs.create ~scale () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "scale 0 rejected" true (rejects 0.);
  check_bool "negative scale rejected" true (rejects (-1.));
  check_bool "nan rejected" true (rejects Float.nan);
  check_bool "bad jobs rejected" true
    (match Core.Runs.create ~jobs:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* abl-l2 reads the paper hierarchy off the sweep; its row must equal
   one computed from a real two-level hierarchy replaying the cell's
   captured stream. *)
let test_runs_two_level_row_matches_hierarchy_replay () =
  let profile = Workload.Programs.find "gs-large" in
  let buf = Memsim.Trace_buffer.create () in
  let r =
    Workload.Driver.run ~sink:(Memsim.Trace_buffer.sink buf) ~scale:0.02
      ~profile ~allocator:"quickfit" ()
  in
  let h =
    Cachesim.Hierarchy.create_levels
      [ Cachesim.Config.make (16 * 1024); Cachesim.Config.make (256 * 1024) ]
  in
  Memsim.Trace_buffer.replay buf (Cachesim.Hierarchy.sink h);
  let l1, l2 =
    match Cachesim.Hierarchy.results h with
    | [ [ (_, l1); (_, l2) ] ] -> (l1, l2)
    | _ -> Alcotest.fail "expected one two-level path"
  in
  let stalls = (l1.Cachesim.Stats.misses * 10) + (l2.Cachesim.Stats.misses * 100) in
  let expected =
    [ "QuickFit";
      Metrics.Table.fmt_float ~decimals:2 (Cachesim.Stats.miss_rate_pct l1);
      Metrics.Table.fmt_float ~decimals:2 (Cachesim.Stats.miss_rate_pct l2);
      Metrics.Table.fmt_float ~decimals:1 (float_of_int stalls /. 1e6);
      Metrics.Table.fmt_float ~decimals:1
        (float_of_int (r.Workload.Driver.instructions + stalls) /. 1e6) ]
  in
  let words line = List.filter (( <> ) "") (String.split_on_char ' ' line) in
  let rows =
    List.filter
      (fun line -> match words line with "QuickFit" :: _ -> true | _ -> false)
      (String.split_on_char '\n' (Core.Ablations.two_level ctx))
  in
  Alcotest.(check (list (list string)))
    "abl-l2 QuickFit row" [ expected ] (List.map words rows)

let test_runs_unknown_keys () =
  check_bool "unknown profile" true
    (match Core.Runs.get ctx.Core.Context.runs ~profile:"nope" ~allocator:"bsd" with
    | exception Not_found -> true
    | _ -> false);
  check_bool "unknown allocator" true
    (match Core.Runs.get ctx.Core.Context.runs ~profile:"make" ~allocator:"nope" with
    | exception Not_found -> true
    | _ -> false)

let test_runs_check_cell () =
  let check_key what expected (got : Workload.Profile.t) =
    Alcotest.(check string) what expected got.key
  in
  (match Core.Runs.check_cell ~program:"espresso" ~allocator:"quickfit" with
  | Ok p -> check_key "registry allocator" "espresso" p
  | Error e -> Alcotest.fail (Core.Runs.cell_error_message e));
  (match Core.Runs.check_cell ~program:"espresso" ~allocator:"custom" with
  | Ok p -> check_key "custom is a cell allocator" "espresso" p
  | Error e -> Alcotest.fail (Core.Runs.cell_error_message e));
  (* The program is checked first. *)
  (match Core.Runs.check_cell ~program:"nope" ~allocator:"nada" with
  | Error (Core.Runs.Unknown_program "nope") -> ()
  | _ -> Alcotest.fail "expected Unknown_program");
  match Core.Runs.check_cell ~program:"make" ~allocator:"nope" with
  | Error (Core.Runs.Unknown_allocator "nope" as e) ->
      Alcotest.(check string)
        "message" "unknown allocator \"nope\""
        (Core.Runs.cell_error_message e)
  | _ -> Alcotest.fail "expected Unknown_allocator"

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_runs_cache_stats_unknown () =
  let d = Core.Runs.get ctx.Core.Context.runs ~profile:"make" ~allocator:"bsd" in
  match Core.Artifact.cache_stats d ~name:"3K-dm" with
  | _ -> Alcotest.fail "expected Invalid_argument for unknown cache"
  | exception Invalid_argument msg ->
      check_bool "names the bad key" true
        (contains_substring ~needle:"3K-dm" msg);
      (* The message must list the configurations that were simulated. *)
      List.iter
        (fun (cfg : Cachesim.Config.t) ->
          check_bool (cfg.name ^ " listed") true
            (contains_substring ~needle:cfg.name msg))
        Core.Runs.standard_configs

(* A grid cell simulates the paper's direct-mapped sweep and nothing
   else, in its order. *)
let test_runs_cell_sweep_is_paper () =
  let d = Core.Runs.get ctx.Core.Context.runs ~profile:"gs-large" ~allocator:"bsd" in
  Alcotest.(check (list string))
    "cache names, in order"
    (List.map
       (fun (c : Cachesim.Config.t) -> c.name)
       Cachesim.Config.paper_direct_mapped)
    (List.map (fun ((c : Cachesim.Config.t), _) -> c.name) d.Core.Artifact.caches);
  check_bool "configurations" true
    (List.map fst d.Core.Artifact.caches = Cachesim.Config.paper_direct_mapped)

(* A tapped pass is the grid's own pass plus one reader, last in the
   fanout and with the sweep on its domain even where a relay is forced:
   its cell is the memoized one byte for byte, the tap sees every event,
   and at the last batch it reads the sweep's final counts. *)
let test_runs_tapped_cell () =
  let runs = ctx.Core.Context.runs in
  let grid = Core.Runs.get runs ~profile:"espresso" ~allocator:"quickfit" in
  let seen = ref 0 and accesses = ref (-1) in
  let tap ~caches ~footprint_bytes:_ ~alloc:_ =
    [ (fun (b : Memsim.Event.Batch.t) ->
        seen := !seen + b.Memsim.Event.Batch.len;
        accesses := (snd (List.hd (caches ()))).Cachesim.Stats.accesses) ]
  in
  let art =
    Exec.Relay.with_path Exec.Relay.Relayed (fun () ->
        Core.Runs.simulate_cell ~tap ~scale:(Core.Runs.scale runs)
          ~profile:"espresso" ~allocator:"quickfit" ())
  in
  check_bool "the grid cell's bytes" true
    (Core.Artifact.encode art = Core.Artifact.encode grid);
  check_int "every event" art.Core.Artifact.summary.Core.Artifact.data_refs
    !seen;
  check_int "the sweep's final count"
    (snd (List.hd art.Core.Artifact.caches)).Cachesim.Stats.accesses
    !accesses

let test_runs_custom_trained () =
  (* "custom" must build per-profile (trained on the histogram). *)
  let d = Core.Runs.get ctx.Core.Context.runs ~profile:"espresso" ~allocator:"custom" in
  check_bool "ran" true
    (d.Core.Artifact.summary.Core.Artifact.instructions > 0);
  check_bool "low fragmentation on trained profile" true
    (Allocators.Alloc_stats.internal_fragmentation d.Core.Artifact.alloc_stats
    < 0.15)

(* Every caller that names "custom" gets the grid's allocator, trained
   on the profile's histogram: a bare driver pass replays the grid
   cell's stream. *)
let test_driver_custom_is_grid_custom () =
  let d =
    Core.Runs.get ctx.Core.Context.runs ~profile:"espresso" ~allocator:"custom"
  in
  let checksum = Memsim.Sink.Checksum.create () in
  let r =
    Workload.Driver.run
      ~sink:(Memsim.Sink.Checksum.sink checksum)
      ~scale:(Core.Runs.scale ctx.Core.Context.runs)
      ~profile:(Workload.Programs.find "espresso")
      ~allocator:"custom" ()
  in
  check_int "instructions" d.Core.Artifact.summary.Core.Artifact.instructions
    r.Workload.Driver.instructions;
  check_int "trace checksum" d.Core.Artifact.meta.Core.Artifact.trace_checksum
    (Memsim.Sink.Checksum.value checksum)

(* ------------------------------------------------------------------ *)
(* External trace ingestion                                           *)
(* ------------------------------------------------------------------ *)

(* A small synthetic capture with enough reuse to touch several cache
   sets: two interleaved strides over 64 blocks. *)
let sample_text =
  let b = Buffer.create 16_384 in
  for i = 0 to 999 do
    Printf.bprintf b "%s 0x%x\n"
      (if i mod 3 = 0 then "W" else "R")
      (0x4000 + (32 * (i mod 64)) + (i mod 2 * 0x10000))
  done;
  Buffer.contents b

let test_ingest_artifact_shape () =
  let runs = Core.Runs.create () in
  let art =
    Core.Runs.ingest runs ~format:Memsim.Trace.Source.Text ~data:sample_text
  in
  let m = art.Core.Artifact.meta in
  check_bool "external allocator" true
    (m.Core.Artifact.allocator = Core.Runs.external_allocator);
  check_bool "program names the stream ident" true
    (m.Core.Artifact.program
    = Printf.sprintf "trace:%x" m.Core.Artifact.trace_checksum);
  check_int "every access counted" 1000
    art.Core.Artifact.summary.Core.Artifact.data_refs;
  check_int "text events are App refs" 1000
    art.Core.Artifact.summary.Core.Artifact.app_refs;
  check_bool "provenance recorded" true
    (art.Core.Artifact.provenance.Core.Artifact.source_format = "text"
    && art.Core.Artifact.provenance.Core.Artifact.source_bytes
       = String.length sample_text);
  let events, ident =
    Core.Runs.trace_ident ~format:Memsim.Trace.Source.Text ~data:sample_text
  in
  check_int "ident pass counts the same events" 1000 events;
  Alcotest.(check string)
    "digest matches trace_digest"
    (Core.Runs.trace_digest ~ident)
    (Core.Artifact.digest_of_meta m);
  (* Every standard configuration saw the traffic. *)
  List.iter
    (fun cfg ->
      let s =
        Core.Artifact.cache_stats art ~name:cfg.Cachesim.Config.name
      in
      check_int (cfg.Cachesim.Config.name ^ " accesses") 1000
        s.Cachesim.Stats.accesses)
    Core.Runs.standard_configs

let test_ingest_jobs_identical () =
  (* The grid's worker count never reaches an ingested cell: the
     artifact bytes are identical for any [jobs]. *)
  let art jobs =
    Core.Artifact.encode
      (Core.Runs.ingest (Core.Runs.create ~jobs ())
         ~format:Memsim.Trace.Source.Text ~data:sample_text)
  in
  Alcotest.(check string) "jobs=1 = jobs=2 encoding" (art 1) (art 2)

let test_ingest_format_identity_memoized () =
  (* The same event stream through a different capture format lands on
     the same cell: the second ingest is a memo hit, not a re-run. *)
  let runs = Core.Runs.create () in
  let a =
    Core.Runs.ingest runs ~format:Memsim.Trace.Source.Text ~data:sample_text
  in
  let csv =
    Memsim.Trace.write Memsim.Trace.Source.Csv (fun sink ->
        ignore (Memsim.Trace.read Memsim.Trace.Source.Text sample_text sink))
  in
  let sim0 = Core.Runs.simulated runs in
  let b = Core.Runs.ingest runs ~format:Memsim.Trace.Source.Csv ~data:csv in
  check_bool "memo hit" true (a == b);
  check_int "no extra simulation" sim0 (Core.Runs.simulated runs)

let test_ingest_malformed_raises () =
  check_bool "malformed trace raises Failure" true
    (match
       Core.Runs.ingest (Core.Runs.create ())
         ~format:Memsim.Trace.Source.Text ~data:"R 0x10\nbogus\n"
     with
    | exception Failure msg -> contains ~needle:"line 2" msg
    | _ -> false)

let test_ingest_report_renders () =
  let art =
    Core.Runs.ingest (Core.Runs.create ())
      ~format:Memsim.Trace.Source.Text ~data:sample_text
  in
  let out = Core.Ingest.report art in
  List.iter
    (fun needle ->
      check_bool ("report has " ^ needle) true (contains ~needle out))
    [ "External trace cell"; "text capture"; "16K-dm"; "256K-dm";
      Core.Artifact.digest_of_meta art.Core.Artifact.meta ]

(* An external cell is a synthetic cell without a driver: a lossless
   capture of a grid cell's event stream, ingested, observes exactly
   what the grid cell did. *)
let test_ingest_matches_synthetic_cell () =
  let scale = 0.005 and program = "make" and allocator = "bsd" in
  let synthetic =
    Core.Runs.get (Core.Runs.create ~scale ()) ~profile:program ~allocator
  in
  let capture =
    Memsim.Trace.write Memsim.Trace.Source.Binary (fun sink ->
        ignore
          (Workload.Driver.run ~sink ~scale
             ~profile:(Workload.Programs.find program) ~allocator ()))
  in
  let ingested =
    Core.Runs.ingest (Core.Runs.create ()) ~format:Memsim.Trace.Source.Binary
      ~data:capture
  in
  check_int "trace checksum"
    synthetic.Core.Artifact.meta.Core.Artifact.trace_checksum
    ingested.Core.Artifact.meta.Core.Artifact.trace_checksum;
  check_bool "caches" true
    (synthetic.Core.Artifact.caches = ingested.Core.Artifact.caches);
  check_bool "fault curve" true
    (synthetic.Core.Artifact.fault_curve = ingested.Core.Artifact.fault_curve)

(* The identity pass keeps nothing of the stream it decodes: what
   [Runs.capture] allocates does not grow with the capture's length. *)
let test_ingest_capture_allocation_budget () =
  let data =
    Memsim.Trace.write Memsim.Trace.Source.Binary (fun sink ->
        ignore
          (Workload.Driver.run ~sink ~scale:0.05
             ~profile:Workload.Programs.gs_large ~allocator:"quickfit" ()))
  in
  (* The counters take in the minor heap's words when it is collected,
     so it is emptied on both sides of the measured call: a collection
     inside it would otherwise count words allocated before it. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let (_ : Core.Runs.capture) =
    Core.Runs.capture ~format:Memsim.Trace.Source.Binary ~data
  in
  Gc.minor ();
  let allocated = Gc.allocated_bytes () -. before in
  let events, _ =
    Core.Runs.trace_ident ~format:Memsim.Trace.Source.Binary ~data
  in
  check_bool "a capture of over a million events" true (events > 1_000_000);
  check_bool
    (Printf.sprintf "capture allocated %.0f bytes, budget 64 KiB" allocated)
    true (allocated < 65_536.)

(* ------------------------------------------------------------------ *)
(* Experiments                                                        *)
(* ------------------------------------------------------------------ *)

let test_experiment_registry () =
  check_int "twenty-four experiments" 24 (List.length Core.Experiment.all);
  List.iter
    (fun id ->
      check_bool (id ^ " findable") true
        ((Core.Experiment.find id).Core.Experiment.id = id))
    (Core.Experiment.ids ());
  check_bool "unknown raises" true
    (match Core.Experiment.find "fig99" with
    | exception Not_found -> true
    | _ -> false)

let test_every_experiment_renders () =
  List.iter
    (fun e ->
      let out = e.Core.Experiment.render ctx in
      check_bool (e.Core.Experiment.id ^ " non-empty") true
        (String.length out > 100))
    Core.Experiment.all

let test_fig1_mentions_all_programs_and_allocators () =
  let out = Core.Experiment.run ctx "fig1" in
  List.iter
    (fun (_, label) ->
      check_bool ("has " ^ label) true (contains ~needle:label out))
    (Core.Context.five_programs @ Core.Context.paper_allocators)

let test_fig2_reports_footprints () =
  let out = Core.Experiment.run ctx "fig2" in
  check_bool "has footprint block" true (contains ~needle:"footprint" out);
  check_bool "has legend" true (contains ~needle:"legend" out)

let test_fig4_baseline_is_one () =
  let out = Core.Experiment.run ctx "fig4" in
  (* FirstFit's normalized columns are exactly 1.000. *)
  check_bool "baseline ones" true (contains ~needle:"1.000" out)

let test_fig9_static () =
  let out = Core.Experiment.run ctx "fig9" in
  check_bool "shows classes" true (contains ~needle:"Size classes" out);
  check_bool "shows mapping arrow" true (contains ~needle:"->" out)

let test_tab6_has_tag_rows () =
  let out = Core.Experiment.run ctx "tab6" in
  check_bool "with tags row" true (contains ~needle:"with tags" out);
  check_bool "no tags row" true (contains ~needle:"no tags" out);
  check_bool "increase row" true (contains ~needle:"increase" out)

(* abl-flush shares one driver pass per allocator among its quanta; each
   row must equal independent per-quantum runs, each with its own cache
   and its own driver pass. *)
let test_flush_rows_match_independent_runs () =
  let stats_testable =
    Alcotest.testable Cachesim.Stats.pp (fun (a : Cachesim.Stats.t) b -> a = b)
  in
  let profile = Workload.Programs.find "gs-large" in
  let run_with_flush allocator quantum =
    let cache = Cachesim.Forest.create [ Cachesim.Config.make (64 * 1024) ] in
    let count = ref 0 in
    let sink (b : Memsim.Event.Batch.t) =
      for i = 0 to b.Memsim.Event.Batch.len - 1 do
        incr count;
        if quantum > 0 && !count mod quantum = 0 then
          Cachesim.Forest.flush cache;
        let meta = b.Memsim.Event.Batch.metas.(i) in
        Cachesim.Forest.access_range_ks cache
          ~ks:(Memsim.Event.Packed.ks meta)
          ~addr:b.Memsim.Event.Batch.addrs.(i) ~size:(meta lsr 3)
      done
    in
    let r = Workload.Driver.run ~sink ~scale:0.02 ~profile ~allocator () in
    (r, Cachesim.Forest.member_stats cache 0)
  in
  let rows = Core.Runs.derive ctx.Core.Context.runs (Core.Ablations.flush_cell ctx) in
  Alcotest.(check (list string))
    "one row per allocator"
    [ "firstfit"; "bsd"; "gnu-local"; "quickfit" ]
    (List.map (fun (row : Core.Derived.row) -> row.variant) rows);
  List.iter
    (fun (row : Core.Derived.row) ->
      let quanta = [ 0; 100_000; 20_000 ] in
      Alcotest.(check (list string))
        "one consumer per quantum"
        (List.map (Printf.sprintf "flush-%d") quanta)
        (List.map fst row.stats);
      List.iter
        (fun quantum ->
          let r, stats = run_with_flush row.variant quantum in
          let name = Printf.sprintf "%s flush-%d" row.variant quantum in
          check_int (name ^ " instructions") r.Workload.Driver.instructions
            row.instructions;
          check_int (name ^ " heap") r.Workload.Driver.heap_used row.heap_used;
          Alcotest.check stats_testable name stats
            (Core.Derived.stats row (Printf.sprintf "flush-%d" quantum)))
        quanta)
    rows

(* abl-sweep drives the six extension caches alone; each row must equal
   the same six simulated beside the paper's sweep, in one 11-cache
   Multi over the same driver stream (the set every grid cell carried
   before the six left it). *)
let test_sweep_rows_match_eleven_cache_multi () =
  let stats_testable =
    Alcotest.testable Cachesim.Stats.pp (fun (a : Cachesim.Stats.t) b -> a = b)
  in
  let profile = Workload.Programs.find "gs-large" in
  let six = Core.Ablations.sweep_configs in
  let name (c : Cachesim.Config.t) = c.name in
  Alcotest.(check (list string))
    "the six extension caches"
    [ "16K-2way"; "16K-4way"; "16K-8way"; "64K-b16"; "64K-b64"; "64K-b128" ]
    (List.map name six);
  let rows = Core.Runs.derive ctx.Core.Context.runs (Core.Ablations.sweep_cell ctx) in
  Alcotest.(check (list string))
    "one row per allocator"
    (List.map fst Core.Context.with_custom)
    (List.map (fun (row : Core.Derived.row) -> row.variant) rows);
  List.iter
    (fun (row : Core.Derived.row) ->
      let multi =
        Cachesim.Multi.create (Cachesim.Config.paper_direct_mapped @ six)
      in
      let r =
        Workload.Driver.run ~sink:(Cachesim.Multi.sink multi) ~scale:0.02
          ~profile ~allocator:row.variant ()
      in
      check_int (row.variant ^ " instructions") r.Workload.Driver.instructions
        row.instructions;
      check_int (row.variant ^ " heap") r.Workload.Driver.heap_used
        row.heap_used;
      Alcotest.(check (list string))
        (row.variant ^ " consumers")
        (List.map name six) (List.map fst row.stats);
      List.iter
        (fun ((c : Cachesim.Config.t), stats) ->
          if List.mem c six then
            Alcotest.check stats_testable
              (row.variant ^ " " ^ c.name)
              stats
              (Core.Derived.stats row c.name))
        (Cachesim.Multi.results multi))
    rows

let test_tabcpu_one_hierarchy () =
  (* tabcpu's six allocator passes share one CPU hierarchy, reset
     between passes.  A level's tags grow with its fullest set, so at
     this scale the passes together stay below the trie's dense tag
     words, num_sets x associativity summed over its distinct levels
     (664,064), where one fresh hierarchy per pass would exceed them. *)
  let ctx = Core.Context.create ~scale:0.002 () in
  let cpus = Cachesim.Cpu.all in
  (* A trie level is a config with its whole upstream path. *)
  let levels =
    List.sort_uniq compare
      (List.concat_map
         (fun (cpu : Cachesim.Cpu.t) ->
           let configs =
             List.map (fun (l : Cachesim.Cpu.level) -> l.config) cpu.levels
           in
           List.mapi
             (fun i _ -> List.filteri (fun j _ -> j <= i) configs)
             configs)
         cpus)
  in
  check_int "trie levels"
    (Cachesim.Hierarchy.distinct_levels (Cachesim.Cpu.hierarchy cpus))
    (List.length levels);
  let dense =
    List.fold_left
      (fun acc path ->
        let c = List.nth path (List.length path - 1) in
        acc + (Cachesim.Config.num_sets c * c.Cachesim.Config.associativity))
      0 levels
  in
  let before = (Gc.quick_stat ()).Gc.major_words in
  ignore (Sys.opaque_identity (Core.Tables.tabcpu ctx));
  let grown = (Gc.quick_stat ()).Gc.major_words -. before in
  check_bool
    (Printf.sprintf "major words grew by %.0f, budget %d (dense tags)" grown
       dense)
    true
    (grown < float_of_int dense)

(* ------------------------------------------------------------------ *)
(* Headline results (structural assertions at small scale)            *)
(* ------------------------------------------------------------------ *)

let test_experiments_deterministic_across_contexts () =
  (* A fresh context at the same scale reproduces the rendering
     byte-for-byte (the determinism the paper relies on: "our
     experiments did not require statistically averaging multiple
     runs"). *)
  let ctx2 = Core.Context.create ~scale:0.02 () in
  List.iter
    (fun id ->
      Alcotest.(check string)
        (id ^ " deterministic")
        (Core.Experiment.run ctx id)
        (Core.Experiment.run ctx2 id))
    [ "tab2"; "fig1" ]

let test_headline_firstfit_worst_gs_misses () =
  (* The paper's central claim: sequential fit has the worst locality.
     At 16K on GS, FirstFit's miss rate must exceed the segregated
     allocators'. *)
  let rate key =
    Core.Artifact.miss_rate
      (Core.Runs.get ctx.Core.Context.runs ~profile:"gs-large" ~allocator:key)
      ~cache:"16K-dm"
  in
  let ff = rate "firstfit" in
  (* custom/quickfit are compared only at realistic scales (their
     page-granular layouts pay a fixed cost that dominates tiny runs);
     see EXPERIMENTS.md. *)
  List.iter
    (fun key ->
      check_bool ("firstfit worse than " ^ key) true (ff > rate key))
    [ "bsd"; "gnu-local" ]

let test_headline_bsd_wastes_space () =
  let heap key =
    (Core.Runs.get ctx.Core.Context.runs ~profile:"gs-large" ~allocator:key)
      .Core.Artifact.summary.Core.Artifact.heap_used
  in
  check_bool "bsd sbrk > quickfit sbrk * 1.3" true
    (float_of_int (heap "bsd") > 1.3 *. float_of_int (heap "quickfit"))

let test_headline_segregated_fastest_cpu () =
  let instr key =
    let d = Core.Runs.get ctx.Core.Context.runs ~profile:"espresso" ~allocator:key in
    d.Core.Artifact.summary.Core.Artifact.malloc_instructions
    + d.Core.Artifact.summary.Core.Artifact.free_instructions
  in
  check_bool "bsd cheaper than firstfit" true (instr "bsd" < instr "firstfit");
  check_bool "bsd cheaper than gnu-local" true (instr "bsd" < instr "gnu-local")

let test_headline_tags_increase_misses () =
  (* Table 6's direction: emulated boundary tags cannot reduce misses. *)
  let misses key =
    (Core.Artifact.cache_stats
       (Core.Runs.get ctx.Core.Context.runs ~profile:"gs-large" ~allocator:key)
       ~name:"64K-dm")
      .Cachesim.Stats.misses
  in
  check_bool "tags do not reduce misses" true
    (misses "gnu-local-tags" >= misses "gnu-local")

let test_headline_bsd_faults_more () =
  (* Finding 3 in its paper form (Figure 2): BSD's power-of-two waste
     inflates its page-fault rate at every memory size. *)
  let curve key =
    (Core.Runs.get ctx.Core.Context.runs ~profile:"gs-large" ~allocator:key)
      .Core.Artifact.fault_curve
  in
  let bsd = curve "bsd" and quickfit = curve "quickfit" in
  List.iter
    (fun memory_bytes ->
      let rate c = Vmsim.Fault_curve.fault_rate c ~memory_bytes in
      check_bool
        (Printf.sprintf "bsd faults/ref > quickfit's at %d KB (%g vs %g)"
           (memory_bytes / 1024) (rate bsd) (rate quickfit))
        true
        (rate bsd > rate quickfit))
    Core.Figures.fig2_memory_sizes

(* ------------------------------------------------------------------ *)
(* Options: one resolution path for every subcommand                  *)
(* ------------------------------------------------------------------ *)

(* Simulated environment: build consults [getenv] only, so these tests
   are hermetic regardless of the real LOCLAB_* variables. *)
let env pairs name = List.assoc_opt name pairs
let no_env _ = None

let build_ok ?getenv ?scale ?penalty ?jobs ?store_dir ?cpu () =
  match
    Core.Context.Options.build ?getenv ?scale ?penalty ?jobs ?store_dir ?cpu ()
  with
  | Ok o -> o
  | Error msg -> Alcotest.failf "unexpected build error: %s" msg

let build_err ?getenv ?scale ?penalty ?jobs ?store_dir ?cpu () =
  match
    Core.Context.Options.build ?getenv ?scale ?penalty ?jobs ?store_dir ?cpu ()
  with
  | Error msg -> msg
  | Ok _ -> Alcotest.fail "expected build to fail"

let test_options_defaults () =
  let o = build_ok ~getenv:no_env () in
  check_bool "defaults" true (o = Core.Context.Options.default);
  check_bool "no store by default" true (o.Core.Context.Options.store_dir = None)

let test_options_env_beats_default () =
  let getenv =
    env
      [
        ("LOCLAB_SCALE", "0.5");
        ("LOCLAB_PENALTY", "40");
        ("LOCLAB_JOBS", "2");
        ("LOCLAB_STORE", "/tmp/opt-store");
        ("LOCLAB_CPU", "haswell");
      ]
  in
  let o = build_ok ~getenv () in
  Alcotest.(check (float 0.)) "scale from env" 0.5 o.Core.Context.Options.scale;
  check_int "penalty from env" 40 o.Core.Context.Options.penalty;
  check_int "jobs from env" 2 o.Core.Context.Options.jobs;
  check_bool "store from env" true
    (o.Core.Context.Options.store_dir = Some "/tmp/opt-store");
  Alcotest.(check string)
    "cpu from env" "haswell" o.Core.Context.Options.cpu.Cachesim.Cpu.key

let test_options_flag_beats_env () =
  (* The flag wins outright: the variable is not even read, so a
     garbage environment cannot break an explicit flag. *)
  let getenv =
    env [ ("LOCLAB_SCALE", "garbage"); ("LOCLAB_PENALTY", "also garbage") ]
  in
  let o = build_ok ~getenv ~scale:0.1 ~penalty:10 () in
  Alcotest.(check (float 0.)) "flag scale" 0.1 o.Core.Context.Options.scale;
  check_int "flag penalty" 10 o.Core.Context.Options.penalty

let test_options_bad_env_names_variable () =
  List.iter
    (fun (var, value) ->
      let msg = build_err ~getenv:(env [ (var, value) ]) () in
      check_bool
        (Printf.sprintf "%s=%s error names it" var value)
        true
        (contains ~needle:var msg))
    [
      ("LOCLAB_SCALE", "garbage");
      ("LOCLAB_SCALE", "9.0");
      ("LOCLAB_PENALTY", "-1");
      ("LOCLAB_PENALTY", "x");
      ("LOCLAB_JOBS", "nope");
      ("LOCLAB_CPU", "z80");
    ]

let test_options_flag_and_env_validated_identically () =
  (* Out-of-range values fail the same way from either source. *)
  ignore (build_err ~getenv:no_env ~scale:9.0 ());
  ignore (build_err ~getenv:(env [ ("LOCLAB_SCALE", "9.0") ]) ());
  ignore (build_err ~getenv:no_env ~scale:0.0 ());
  ignore (build_err ~getenv:no_env ~penalty:(-1) ());
  ignore (build_err ~getenv:(env [ ("LOCLAB_PENALTY", "-1") ]) ());
  check_bool "both sources validated" true true

let test_options_store_empty_means_none () =
  let o = build_ok ~getenv:no_env ~store_dir:"" () in
  check_bool "empty flag = no store" true
    (o.Core.Context.Options.store_dir = None);
  let o = build_ok ~getenv:(env [ ("LOCLAB_STORE", "") ]) () in
  check_bool "empty env = no store" true
    (o.Core.Context.Options.store_dir = None)

let test_options_jobs_zero_means_per_core () =
  let o = build_ok ~getenv:no_env ~jobs:0 () in
  check_bool "jobs 0 resolves >= 1" true (o.Core.Context.Options.jobs >= 1);
  let o = build_ok ~getenv:(env [ ("LOCLAB_JOBS", "0") ]) () in
  check_bool "env jobs 0 resolves >= 1" true (o.Core.Context.Options.jobs >= 1)

let tc name f = Alcotest.test_case name `Quick f

(* An experiment's [cells] and [derived] must name every grid cell and
   derived cell its render reads: a missing one is still computed,
   lazily and on one domain, so no rendering test notices.  After
   warming the experiment and resolving its declared derived cells
   (which the fill leaves to the render when no grid cell is cold), a
   render on a fresh context simulates and computes nothing more. *)
let cells_cover_render (e : Core.Experiment.t) () =
  let ctx = Core.Context.create ~scale:0.002 () in
  let runs = ctx.Core.Context.runs in
  Core.Experiment.warm ctx [ e.id ];
  List.iter (fun d -> ignore (Core.Runs.derive runs (d ctx))) e.derived;
  let before = Core.Runs.simulated runs
  and before_d = Core.Runs.derived_computed runs in
  ignore (e.render ctx);
  check_int (e.id ^ ": cells the hint missed") before (Core.Runs.simulated runs);
  check_int
    (e.id ^ ": derived cells the declaration missed")
    before_d
    (Core.Runs.derived_computed runs)

(* ------------------------------------------------------------------ *)
(* The fill: grid cells beside derived cells                          *)
(* ------------------------------------------------------------------ *)

let made_dirs = ref []

let rec remove_tree path =
  if Sys.file_exists path && Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    try Unix.rmdir path with Unix.Unix_error _ -> ()
  end
  else try Sys.remove path with Sys_error _ -> ()

let temp_store () =
  let dir = Filename.temp_file "loclab-test-core-" ".store" in
  Sys.remove dir;
  made_dirs := dir :: !made_dirs;
  Store.open_ dir

(* Every payload of every namespace, by digest. *)
let store_contents store =
  List.concat_map
    (fun (ns : Core.Runs.namespace) ->
      let s = ns.locate store in
      List.map
        (fun digest ->
          match Store.find s ~digest with
          | Store.Hit payload -> (ns.name, digest, Digest.to_hex (Digest.string payload))
          | _ -> Alcotest.failf "%s %s unreadable" ns.name digest)
        (List.sort compare (Store.ls s)))
    Core.Runs.namespaces

(* Relays so far, down either path. *)
let relays () =
  List.fold_left
    (fun n (fam : Telemetry.Metrics.family_snapshot) ->
      if fam.fname <> "loclab_relay_total" then n
      else
        List.fold_left
          (fun n (sample : Telemetry.Metrics.sample) ->
            match sample.v with Telemetry.Metrics.Counter_v c -> n + c | _ -> n)
          n fam.samples)
    0
    (Telemetry.Metrics.snapshot Telemetry.Metrics.default)

let fill_scale = 0.004

(* A cold [warm_all] into a fresh store under a forced relay path, then
   a render of every experiment: the text, what the memo holds and what
   the store holds. *)
let fill_under path =
  let store = temp_store () in
  let ctx = Core.Context.create ~scale:fill_scale ~store () in
  let runs = ctx.Core.Context.runs in
  let r0 = relays () in
  Exec.Relay.with_path path (fun () -> Core.Experiment.warm_all ctx);
  let took = relays () - r0 in
  let text =
    String.concat "\n"
      (List.map (fun (e : Core.Experiment.t) -> e.render ctx) Core.Experiment.all)
  in
  let simulated = Core.Runs.simulated runs
  and computed = Core.Runs.derived_computed runs in
  let memo =
    List.concat_map
      (fun (e : Core.Experiment.t) ->
        List.map
          (fun (profile, allocator) ->
            Core.Artifact.encode (Core.Runs.get runs ~profile ~allocator))
          e.cells
        @ List.map
            (fun d ->
              let d = d ctx in
              Core.Derived.encode
                { Core.Derived.meta =
                    { Core.Derived.id = d.Core.Runs.id;
                      scale = d.scale;
                      schema_version = Core.Derived.schema_version;
                      inputs = d.inputs };
                  rows = Core.Runs.derive runs d })
            e.derived)
      Core.Experiment.all
  in
  check_int "reading the memo simulated nothing" simulated
    (Core.Runs.simulated runs);
  check_int "reading the memo computed nothing" computed
    (Core.Runs.derived_computed runs);
  check_int "the four derived cells computed in the fill" 4 computed;
  (took, text, memo, store_contents store, store)

let test_fill_relayed_equals_inline () =
  Telemetry.Metrics.set_enabled Telemetry.Metrics.default true;
  let took_r, text_r, memo_r, store_r, _ = fill_under Exec.Relay.Relayed in
  let _, text_i, memo_i, store_i, _ = fill_under Exec.Relay.Inline in
  check_bool "the relayed fill relayed" true (took_r > 0);
  Alcotest.(check string) "rendered bytes" text_i text_r;
  Alcotest.(check (list string)) "memo contents" memo_i memo_r;
  Alcotest.(check (list (triple string string string)))
    "store digests and payloads" store_i store_r

(* A side-by-side fill that fails merges nothing, and raises the grid's
   first failure by position before any derived cell's. *)
let test_fill_failure_merges_nothing () =
  let failing_derivation =
    { Core.Runs.id = "failing"; scale = fill_scale; inputs = "none";
      compute = (fun () -> failwith "derived") }
  in
  List.iter
    (fun path ->
      let ctx = Core.Context.create ~scale:fill_scale () in
      let runs = ctx.Core.Context.runs in
      let prefetch derived cells =
        Exec.Relay.with_path path (fun () ->
            Core.Runs.prefetch runs ~derived cells)
      in
      check_bool "an unknown program raises Not_found" true
        (match
           prefetch
             [ failing_derivation ]
             [ ("make", "bsd"); ("no-such-program", "bsd"); ("gawk", "bsd") ]
         with
        | () -> false
        | exception Not_found -> true);
      check_bool "a failing derived cell raises its exception" true
        (match prefetch [ failing_derivation ] [ ("make", "bsd") ] with
        | () -> false
        | exception Failure msg -> msg = "derived");
      check_int "no grid cell merged" 0 (Core.Runs.simulated runs);
      check_int "no derived cell merged" 0 (Core.Runs.derived_computed runs))
    [ Exec.Relay.Relayed; Exec.Relay.Inline ]

(* A report over a warm store forks nothing: every value is a store
   read, so the fill takes no helper and relays nothing. *)
let test_warm_fill_takes_no_helper () =
  Telemetry.Metrics.set_enabled Telemetry.Metrics.default true;
  let _, text, _, _, store = fill_under Exec.Relay.Relayed in
  let ctx = Core.Context.create ~scale:fill_scale ~store () in
  let runs = ctx.Core.Context.runs in
  let before = relays () in
  Core.Experiment.warm_all ctx;
  check_int "loclab_relay_total unchanged" before (relays ());
  check_int "no cell simulated" 0 (Core.Runs.simulated runs);
  check_int "no derived cell computed" 0 (Core.Runs.derived_computed runs);
  check_int "the four derived cells read" 4 (Core.Runs.derived_hits runs);
  Alcotest.(check string) "warm render = cold render" text
    (String.concat "\n"
       (List.map (fun (e : Core.Experiment.t) -> e.render ctx) Core.Experiment.all));
  check_int "nor did the render" before (relays ())

let () =
  (* [Alcotest.run] ends in [exit], which runs [at_exit] handlers. *)
  at_exit (fun () -> List.iter remove_tree !made_dirs);
  Alcotest.run "core"
    [
      ( "runs",
        [
          tc "memoized" test_runs_memoized;
          tc "all configs present" test_runs_all_configs_present;
          tc "standard configs are LRU" test_runs_standard_configs_lru;
          tc "page/cache counts agree" test_runs_page_and_cache_counts_agree;
          tc "miss rate decreases with size"
            test_runs_miss_rate_decreases_with_size;
          tc "exec time uses misses" test_runs_exec_time_uses_misses;
          tc "bad scale rejected" test_runs_bad_scale_rejected;
          tc "abl-l2 row = hierarchy replay"
            test_runs_two_level_row_matches_hierarchy_replay;
          tc "unknown keys" test_runs_unknown_keys;
          tc "check_cell validates keys" test_runs_check_cell;
          tc "cache_stats unknown name" test_runs_cache_stats_unknown;
          tc "custom trained" test_runs_custom_trained;
          tc "driver custom is the grid's custom"
            test_driver_custom_is_grid_custom;
          tc "cell sweep is the paper's" test_runs_cell_sweep_is_paper;
          tc "tapped cell is the grid cell" test_runs_tapped_cell;
        ] );
      ( "ingest",
        [
          tc "artifact shape" test_ingest_artifact_shape;
          tc "jobs identical" test_ingest_jobs_identical;
          tc "format identity memoized"
            test_ingest_format_identity_memoized;
          tc "malformed raises" test_ingest_malformed_raises;
          tc "report renders" test_ingest_report_renders;
          tc "binary capture matches its synthetic cell"
            test_ingest_matches_synthetic_cell;
          tc "identity pass allocation budget"
            test_ingest_capture_allocation_budget;
        ] );
      ( "experiments",
        [
          tc "registry" test_experiment_registry;
          tc "every experiment renders" test_every_experiment_renders;
          tc "fig1 mentions everything"
            test_fig1_mentions_all_programs_and_allocators;
          tc "fig2 reports footprints" test_fig2_reports_footprints;
          tc "fig4 baseline is one" test_fig4_baseline_is_one;
          tc "fig9 static" test_fig9_static;
          tc "tab6 tag rows" test_tab6_has_tag_rows;
          tc "deterministic across contexts"
            test_experiments_deterministic_across_contexts;
          tc "flush rows equal independent per-quantum runs"
            test_flush_rows_match_independent_runs;
          tc "tabcpu allocates one hierarchy" test_tabcpu_one_hierarchy;
          tc "abl-sweep rows equal an 11-cache multi"
            test_sweep_rows_match_eleven_cache_multi;
        ] );
      ( "fill",
        [
          tc "relayed = inline: bytes, memo, store"
            test_fill_relayed_equals_inline;
          tc "a warm fill takes no helper" test_warm_fill_takes_no_helper;
          tc "a failed fill merges nothing" test_fill_failure_merges_nothing;
        ] );
      ( "cells",
        List.map
          (fun (e : Core.Experiment.t) -> tc e.id (cells_cover_render e))
          Core.Experiment.all );
      ( "options",
        [
          tc "defaults" test_options_defaults;
          tc "env beats default" test_options_env_beats_default;
          tc "flag beats env" test_options_flag_beats_env;
          tc "bad env names the variable" test_options_bad_env_names_variable;
          tc "flag and env validated identically"
            test_options_flag_and_env_validated_identically;
          tc "empty store means none" test_options_store_empty_means_none;
          tc "jobs 0 means per-core" test_options_jobs_zero_means_per_core;
        ] );
      ( "headline",
        [
          tc "firstfit worst GS misses" test_headline_firstfit_worst_gs_misses;
          tc "bsd wastes space" test_headline_bsd_wastes_space;
          tc "segregated fastest cpu" test_headline_segregated_fastest_cpu;
          tc "tags increase misses" test_headline_tags_increase_misses;
          tc "bsd faults more at every fig2 size" test_headline_bsd_faults_more;
        ] );
    ]
