(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper (the rows and
   series the paper reports) from one shared, memoized run grid — this
   is the reproduction output recorded in EXPERIMENTS.md.

   Part 2 runs Bechamel micro-benchmarks: one Test.make per paper
   table/figure (regeneration cost on the warm grid) plus allocator
   operation kernels that check the paper's CPU-cost ordering
   (BSD/QuickFit fast, FirstFit/G++ searching, GNU local heavyweight)
   at native speed.

   Part 1 also measures the persistent artifact store: the grid is
   filled cold through a store (writing every cell through), then a
   second, fresh grid is filled warm from the same store — the
   warm/cold ratio is the store's speedup, recorded in the BENCH json.

   Scale comes from LOCLAB_SCALE (default 0.25); LOCLAB_JOBS sets the
   worker domains used to fill the run grid (default 1; output is
   bit-identical for any value).  LOCLAB_STORE names the store
   directory (default: a throwaway under the system temp dir, removed
   at exit).  Pass LOCLAB_BENCH=0 to skip part 2 (e.g. in CI) and
   LOCLAB_SERVE=0 to skip the serve traffic replay. *)

open Bechamel

let () = Telemetry.setup_logging ()

let scale =
  match Sys.getenv_opt "LOCLAB_SCALE" with
  | Some s -> (try float_of_string s with _ -> 0.25)
  | None -> 0.25

let jobs = Exec.Pool.default_jobs ()
let run_micro = Sys.getenv_opt "LOCLAB_BENCH" <> Some "0"

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate every table and figure                          *)
(* ------------------------------------------------------------------ *)

(* The store under test: LOCLAB_STORE, or a throwaway directory that is
   removed after the run. *)
let store_dir, store_is_temp =
  match Sys.getenv_opt "LOCLAB_STORE" with
  | Some dir when dir <> "" -> (dir, false)
  | _ ->
      ( Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "loclab-bench-store-%d" (Unix.getpid ())),
        true )

let store = Store.open_ store_dir
let ctx = Core.Context.create ~scale ~jobs ~store ()

(* Numbers exported to the BENCH json at exit. *)
let fill_seconds = ref 0.
let warm_fill_seconds = ref 0.
let cold_hits = ref 0
let cold_simulated = ref 0
let warm_hits = ref 0
let warm_simulated = ref 0
let grid_events = ref 0
let kernel_results : (string * float) list ref = ref []

(* Total simulated references across the (deduplicated) grid — the
   event count behind the fill time, for an events/second figure. *)
let count_grid_events () =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (e : Core.Experiment.t) ->
      List.iter
        (fun (profile, allocator) ->
          if not (Hashtbl.mem seen (profile, allocator)) then begin
            Hashtbl.replace seen (profile, allocator) ();
            let d =
              Core.Runs.get ctx.Core.Context.runs ~profile ~allocator
            in
            grid_events :=
              !grid_events + d.Core.Artifact.summary.Core.Artifact.data_refs
          end)
        e.Core.Experiment.cells)
    Core.Experiment.all

let () =
  Printf.printf
    "loclab bench: reproducing Grunwald/Zorn/Henderson PLDI'93 at scale %.2f \
     (%d job%s)\n\n"
    scale jobs
    (if jobs = 1 then "" else "s");
  (* Fill the whole memoized grid up front — in parallel when jobs > 1 —
     and report the fill time, the number the --jobs knob moves. *)
  let t0 = Unix.gettimeofday () in
  Core.Experiment.warm_all ctx;
  fill_seconds := Unix.gettimeofday () -. t0;
  cold_hits := Core.Runs.store_hits ctx.Core.Context.runs;
  cold_simulated := Core.Runs.simulated ctx.Core.Context.runs;
  count_grid_events ();
  Printf.printf "grid fill: %.2f s wall (%d jobs, scale %.2f)\n"
    !fill_seconds jobs scale;
  Printf.printf "grid throughput: %.2f M events/s (%d simulated references)\n"
    (float_of_int !grid_events /. !fill_seconds /. 1e6)
    !grid_events;
  Printf.printf "store fill: %d cells simulated, %d already present (%s)\n"
    !cold_simulated !cold_hits store_dir;
  (* Warm pass: a fresh grid over the same store — every cell should be
     a store hit and the fill should be pure decode I/O. *)
  let wctx = Core.Context.create ~scale ~jobs ~store () in
  let t1 = Unix.gettimeofday () in
  Core.Experiment.warm_all wctx;
  warm_fill_seconds := Unix.gettimeofday () -. t1;
  warm_hits := Core.Runs.store_hits wctx.Core.Context.runs;
  warm_simulated := Core.Runs.simulated wctx.Core.Context.runs;
  Printf.printf
    "store warm fill: %.3f s wall (%d hits, %d simulated) — %.0fx speedup\n\n"
    !warm_fill_seconds !warm_hits !warm_simulated
    (!fill_seconds /. !warm_fill_seconds);
  List.iter
    (fun e ->
      Printf.printf "================ %s — %s (%s) ================\n%s\n"
        e.Core.Experiment.id e.Core.Experiment.title e.Core.Experiment.paper_ref
        (e.Core.Experiment.render ctx))
    Core.Experiment.all

(* ------------------------------------------------------------------ *)
(* Domain-sharded replay scaling                                      *)
(* ------------------------------------------------------------------ *)

(* Capture one grid cell's reference trace once, then replay it through
   the standard 32-byte LRU forest family under Cachesim.Shard with a
   growing domain count.  LOCLAB_SCALING_JOBS overrides the job list
   (comma-separated, default "1,2,4,8").  Every sharded run is checked
   stat-identical to the sequential one. *)
let scaling_jobs =
  let default = [ 1; 2; 4; 8 ] in
  match Sys.getenv_opt "LOCLAB_SCALING_JOBS" with
  | None -> default
  | Some s ->
      let parsed =
        String.split_on_char ',' s
        |> List.filter_map (fun tok ->
               match int_of_string_opt (String.trim tok) with
               | Some j when j >= 1 -> Some j
               | _ -> None)
      in
      if parsed = [] then default else parsed

let scaling_cell = "espresso/bsd"
let scaling_trace_events = ref 0
let scaling_configs = ref 0

(* (jobs, wall seconds, events/s) in run order. *)
let scaling_curve : (int * float * float) list ref = ref []
let scaling_identical = ref true

let () =
  let trace = Memsim.Trace_buffer.create () in
  ignore
    (Workload.Driver.run
       ~sink:(Memsim.Trace_buffer.sink trace)
       ~scale ~profile:Workload.Programs.espresso ~allocator:"bsd" ());
  scaling_trace_events := Memsim.Trace_buffer.length trace;
  let configs =
    List.filter
      (fun (c : Cachesim.Config.t) ->
        c.block_bytes = 32 && Cachesim.Policy.is_lru c.policy)
      Core.Runs.standard_configs
  in
  scaling_configs := List.length configs;
  let replay domains =
    let t0 = Unix.gettimeofday () in
    let results = Cachesim.Shard.replay ~domains ~configs trace in
    (Unix.gettimeofday () -. t0, List.map snd results)
  in
  (* Untimed sequential run: the stat-identity reference, and a warm-up
     so the first timed point does not pay one-off allocation costs. *)
  let _, reference = replay 1 in
  Printf.printf
    "sharded replay (%s): %d events x %d configs, set-partitioned\n"
    scaling_cell !scaling_trace_events !scaling_configs;
  List.iter
    (fun j ->
      let seconds, stats = replay j in
      let rate = float_of_int !scaling_trace_events /. seconds in
      let same = stats = reference in
      if not same then scaling_identical := false;
      scaling_curve := (j, seconds, rate) :: !scaling_curve;
      Printf.printf "  jobs=%d  %7.3f s  %8.2f M events/s%s\n" j seconds
        (rate /. 1e6)
        (if same then "" else "  [STATS DIVERGE FROM SEQUENTIAL]"))
    scaling_jobs;
  scaling_curve := List.rev !scaling_curve;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* External-trace ingest throughput                                   *)
(* ------------------------------------------------------------------ *)

(* Encode one grid cell's reference trace as a cachetrace text capture
   and as the compact binary, measure each reader's parse throughput
   into a counting sink, then replay the parsed events through the
   32-byte LRU forest family sharded over 1 and 2 domains.  (`loclab
   trace import` itself replays on one domain, through the same
   consumers as a grid cell.) *)
let ingest_jobs = [ 1; 2 ]
let ingest_events = ref 0
let ingest_text_bytes = ref 0
let ingest_binary_bytes = ref 0
let ingest_text_rate = ref 0.
let ingest_binary_rate = ref 0.

(* (jobs, wall seconds, events/s) in run order. *)
let ingest_replay : (int * float * float) list ref = ref []

let () =
  let buf = Memsim.Trace_buffer.create () in
  ignore
    (Workload.Driver.run
       ~sink:(Memsim.Trace_buffer.sink buf)
       ~scale ~profile:Workload.Programs.espresso ~allocator:"bsd" ());
  let encode fmt =
    Memsim.Trace.write fmt (fun sink -> Memsim.Trace_buffer.replay buf sink)
  in
  let text = encode Memsim.Trace.Source.Text in
  let binary = encode Memsim.Trace.Source.Binary in
  ingest_text_bytes := String.length text;
  ingest_binary_bytes := String.length binary;
  let time_read fmt data =
    let counter = Memsim.Sink.Counter.create () in
    let t0 = Unix.gettimeofday () in
    let n = Memsim.Trace.read fmt data (Memsim.Sink.Counter.sink counter) in
    (Unix.gettimeofday () -. t0, n)
  in
  (* Warm-up parses (one-off allocation costs), then the timed ones. *)
  let parsed = Memsim.Trace_buffer.create () in
  ingest_events :=
    Memsim.Trace.read Memsim.Trace.Source.Text text
      (Memsim.Trace_buffer.sink parsed);
  ignore (time_read Memsim.Trace.Source.Binary binary);
  let text_seconds, _ = time_read Memsim.Trace.Source.Text text in
  let binary_seconds, _ = time_read Memsim.Trace.Source.Binary binary in
  let rate seconds =
    if seconds > 0. then float_of_int !ingest_events /. seconds else 0.
  in
  ingest_text_rate := rate text_seconds;
  ingest_binary_rate := rate binary_seconds;
  Printf.printf
    "ingest readers (espresso/bsd): %d events — text %d bytes %.2f M \
     events/s, binary %d bytes %.2f M events/s\n"
    !ingest_events !ingest_text_bytes
    (!ingest_text_rate /. 1e6)
    !ingest_binary_bytes
    (!ingest_binary_rate /. 1e6);
  let configs =
    List.filter
      (fun (c : Cachesim.Config.t) ->
        c.block_bytes = 32 && Cachesim.Policy.is_lru c.policy)
      Core.Runs.standard_configs
  in
  List.iter
    (fun j ->
      let t0 = Unix.gettimeofday () in
      ignore (Cachesim.Shard.replay ~domains:j ~configs parsed);
      let seconds = Unix.gettimeofday () -. t0 in
      ingest_replay := (j, seconds, rate seconds) :: !ingest_replay;
      Printf.printf "  ingest replay jobs=%d  %7.3f s  %8.2f M events/s\n" j
        seconds
        (rate seconds /. 1e6))
    ingest_jobs;
  ingest_replay := List.rev !ingest_replay;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Serve traffic replay                                               *)
(* ------------------------------------------------------------------ *)

(* Replay a mixed warm/cold request stream against an in-process
   loclab serve on a temp unix socket, over the store part 1 just
   warmed: N concurrent clients, each issuing LOCLAB_SERVE_REQUESTS
   requests (default 100) — ~95% grid cells (store hits) and ~5%
   unique tiny-scale cold cells (simulated, write-through).  Per
   concurrency level the bench records wall time, requests/sec and
   client-observed p50/p99 latency.  LOCLAB_SERVE_CLIENTS overrides
   the level list (default "1,2,4"); LOCLAB_SERVE=0 skips the section.

   Single-core caveat: on a 1-core container the levels mostly measure
   queueing fairness, not parallel speedup — the server still answers
   warm requests at store-decode speed, which is the point. *)
let run_serve = Sys.getenv_opt "LOCLAB_SERVE" <> Some "0"

let serve_clients =
  let default = [ 1; 2; 4 ] in
  match Sys.getenv_opt "LOCLAB_SERVE_CLIENTS" with
  | None -> default
  | Some s ->
      let parsed =
        String.split_on_char ',' s
        |> List.filter_map (fun tok ->
               match int_of_string_opt (String.trim tok) with
               | Some c when c >= 1 -> Some c
               | _ -> None)
      in
      if parsed = [] then default else parsed

let serve_requests_per_client =
  match Sys.getenv_opt "LOCLAB_SERVE_REQUESTS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 100)
  | None -> 100

(* One cold request per 20: request index 19, 39, ... of each client. *)
let serve_cold_every = 20

(* (clients, requests, seconds, requests/s, p50 us, p99 us) per level. *)
let serve_levels : (int * int * float * float * float * float) list ref =
  ref []

(* Server-side observability captured from /status after the replay:
   per-stage latency quantiles, access-log accounting, span drops. *)
let obs_stages : (string * int * float * float) list ref = ref []
let obs_access_written = ref 0
let obs_access_sampled = ref 0
let obs_spans_dropped = ref 0
let obs_slow_requests = ref 0

let () =
  if run_serve then begin
    let sock =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "loclab-bench-%d.sock" (Unix.getpid ()))
    in
    let access_log =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "loclab-bench-%d.access.jsonl" (Unix.getpid ()))
    in
    let server =
      Serve.Server.create ~jobs ~store ~access_log
        ~listen:(Serve.Protocol.Unix_path sock) ()
    in
    let server_thread = Thread.create (fun () -> Serve.Server.run server) () in
    let addr = Serve.Server.listen_addr server in
    let cells =
      (* The deduplicated grid, warm in the store after part 1. *)
      let seen = Hashtbl.create 64 in
      List.concat_map
        (fun (e : Core.Experiment.t) -> e.Core.Experiment.cells)
        Core.Experiment.all
      |> List.filter (fun c ->
             if Hashtbl.mem seen c then false
             else begin
               Hashtbl.replace seen c ();
               true
             end)
      |> Array.of_list
    in
    Printf.printf
      "serve traffic replay (%s): %d warm cells, %d requests/client, 1 cold \
       in %d\n"
      (Serve.Protocol.addr_to_string addr)
      (Array.length cells) serve_requests_per_client serve_cold_every;
    (* Unique coordinates per cold request, across every level, so a
       cold cell is never accidentally warmed by an earlier level. *)
    let cold_uid = Atomic.make 0 in
    List.iter
      (fun clients ->
        let n = clients * serve_requests_per_client in
        let latencies = Array.make n 0. in
        let t0 = Unix.gettimeofday () in
        let client ci =
          Serve.Client.with_connection addr (fun conn ->
              for r = 0 to serve_requests_per_client - 1 do
                let req =
                  if r mod serve_cold_every = serve_cold_every - 1 then
                    let k = Atomic.fetch_and_add cold_uid 1 in
                    Serve.Protocol.Run_cell
                      { program = "espresso";
                        allocator = "bsd";
                        scale = 0.011 +. (0.0001 *. float_of_int k) }
                  else
                    let program, allocator =
                      cells.((ci + r) mod Array.length cells)
                    in
                    Serve.Protocol.Run_cell { program; allocator; scale }
                in
                let q0 = Unix.gettimeofday () in
                (match Serve.Client.request conn req with
                | Ok (Serve.Protocol.Cell_ok _) -> ()
                | Ok (Serve.Protocol.Error { message; _ }) ->
                    failwith ("serve replay: server error: " ^ message)
                | Ok _ -> failwith "serve replay: unexpected response"
                | Error err ->
                    failwith
                      ("serve replay: " ^ Serve.Client.error_to_string err));
                latencies.((ci * serve_requests_per_client) + r) <-
                  (Unix.gettimeofday () -. q0) *. 1e6
              done)
        in
        let threads =
          List.init clients (fun ci -> Thread.create client ci)
        in
        List.iter Thread.join threads;
        let wall = Unix.gettimeofday () -. t0 in
        Array.sort compare latencies;
        let pct q =
          latencies.(min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5)))
        in
        let rps = float_of_int n /. wall in
        serve_levels := (clients, n, wall, rps, pct 0.5, pct 0.99) :: !serve_levels;
        Printf.printf
          "  clients=%d  %4d requests  %6.2f s  %7.1f req/s  p50 %7.0f us  \
           p99 %8.0f us\n"
          clients n wall rps (pct 0.5) (pct 0.99))
      serve_clients;
    serve_levels := List.rev !serve_levels;
    (* Scrape /status while the server still holds the replay's stage
       histograms: the per-stage quantiles are the observability data
       this bench exists to record. *)
    (match Serve.Client.http_get ~timeout:5.0 addr "/status" with
    | Error err ->
        failwith ("serve /status: " ^ Serve.Client.error_to_string err)
    | Ok body -> (
        match Metrics.Export.of_string body with
        | Error msg -> failwith ("serve /status: unparsable JSON: " ^ msg)
        | Ok status ->
            let open Metrics.Export in
            let mem path json =
              List.fold_left
                (fun j key -> Option.bind j (fun j -> member key j))
                (Some json) path
            in
            let geti path =
              Option.bind (mem path status) to_int_opt
              |> Option.value ~default:0
            in
            (match Option.bind (member "stages" status) to_list_opt with
            | None -> failwith "serve /status: no stages section"
            | Some stages ->
                obs_stages :=
                  List.filter_map
                    (fun s ->
                      match
                        ( Option.bind (member "stage" s) to_string_opt,
                          Option.bind (member "count" s) to_int_opt,
                          Option.bind (member "p50_us" s) to_float_opt,
                          Option.bind (member "p99_us" s) to_float_opt )
                      with
                      | Some name, Some count, Some p50, Some p99 ->
                          Some (name, count, p50, p99)
                      | _ -> None)
                    stages);
            obs_access_written := geti [ "access_log"; "written" ];
            obs_access_sampled := geti [ "access_log"; "sampled_out" ];
            obs_spans_dropped := geti [ "spans"; "dropped" ];
            obs_slow_requests :=
              (match
                 Option.bind (member "slow_requests" status) to_list_opt
               with
              | Some l -> List.length l
              | None -> 0);
            Printf.printf "server-side stage latency (from /status):\n";
            List.iter
              (fun (name, count, p50, p99) ->
                Printf.printf
                  "  %-18s %6d spans  p50 %8.1f us  p99 %9.1f us\n" name
                  count p50 p99)
              !obs_stages;
            Printf.printf
              "  access log: %d lines written, %d sampled out; %d slow \
               requests retained; %d spans dropped\n"
              !obs_access_written !obs_access_sampled !obs_slow_requests
              !obs_spans_dropped));
    Serve.Server.shutdown server;
    Thread.join server_thread;
    (try Sys.remove access_log with Sys_error _ -> ());
    print_newline ()
  end

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks                                  *)
(* ------------------------------------------------------------------ *)

(* One Test.make per paper table/figure: regeneration from the warm
   grid (simulation amortized away; measures the reporting pipeline).
   abl-flush and abl-lifetime run fresh simulations on every render, so
   looping them under Bechamel would re-simulate for seconds per sample;
   they are regenerated once in part 1 and skipped here. *)
let experiment_tests =
  Core.Experiment.all
  |> List.filter (fun e ->
         e.Core.Experiment.id <> "abl-flush"
         && e.Core.Experiment.id <> "abl-lifetime")
  |> List.map (fun e ->
         Test.make ~name:e.Core.Experiment.id
           (Staged.stage (fun () -> ignore (e.Core.Experiment.render ctx))))

(* Steady-state churn kernel: allocate four mixed-size objects, free
   them.  Exercises the fast path plus occasional refills. *)
let allocator_kernel key =
  let heap = Allocators.Heap.create () in
  let alloc = Allocators.Registry.build key heap in
  (* Prime the heap so the kernel measures steady state, not sbrk. *)
  let warm =
    List.init 256 (fun i ->
        Allocators.Allocator.malloc alloc (8 + (8 * (i mod 16))))
  in
  List.iter (Allocators.Allocator.free alloc) warm;
  Staged.stage (fun () ->
      let a = Allocators.Allocator.malloc alloc 24 in
      let b = Allocators.Allocator.malloc alloc 40 in
      let c = Allocators.Allocator.malloc alloc 128 in
      let d = Allocators.Allocator.malloc alloc 1024 in
      Allocators.Allocator.free alloc b;
      Allocators.Allocator.free alloc a;
      Allocators.Allocator.free alloc d;
      Allocators.Allocator.free alloc c)

let allocator_tests =
  List.map
    (fun spec ->
      let key = spec.Allocators.Registry.key in
      Test.make ~name:("alloc:" ^ key) (allocator_kernel key))
    Allocators.Registry.all

(* Substrate kernels. *)
let substrate_tests =
  let cache = Cachesim.Cache.create (Cachesim.Config.make (64 * 1024)) in
  let counter = ref 0 in
  let cache_kernel =
    Staged.stage (fun () ->
        incr counter;
        ignore
          (Cachesim.Cache.access_block cache ~kind:Memsim.Event.Read
             ~source:Memsim.Event.App ~block:(!counter * 37 land 0xFFFF)))
  in
  (* One probe serves the whole 32-byte LRU family of the standard
     sweep — the per-access cost amortized across every member at once,
     to set against substrate:cache-access (one member per probe).  The
     policy variants are not forest-simulable and get their own
     substrate:policy-* probes below. *)
  let forest =
    Cachesim.Forest.create
      (List.filter
         (fun (c : Cachesim.Config.t) ->
           c.block_bytes = 32 && Cachesim.Policy.is_lru c.policy)
         Core.Runs.standard_configs)
  in
  let fcounter = ref 0 in
  let forest_kernel =
    Staged.stage (fun () ->
        incr fcounter;
        ignore
          (Cachesim.Forest.access_block forest ~kind:Memsim.Event.Read
             ~source:Memsim.Event.App ~block:(!fcounter * 37 land 0xFFFF)))
  in
  (* The consumer hot path, isolated: one 256-event packed delivery into
     the same forest family (two int loads per event, no allocation). *)
  let delivery =
    let b = Memsim.Event.Batch.create ~capacity:256 () in
    for i = 0 to 255 do
      Memsim.Event.Batch.push b
        ~addr:(i * 1933 land 0xFFFF * 4)
        ~meta:((4 lsl 3) lor (if i land 7 = 0 then 4 else 0))
    done;
    b
  in
  let packed_forest =
    Cachesim.Forest.create
      (List.filter
         (fun (c : Cachesim.Config.t) ->
           c.block_bytes = 32 && Cachesim.Policy.is_lru c.policy)
         Core.Runs.standard_configs)
  in
  let batch_packed_kernel =
    Staged.stage (fun () -> Cachesim.Forest.sink packed_forest delivery)
  in
  let stack = Vmsim.Lru_stack.create () in
  let scounter = ref 0 in
  let stack_kernel =
    Staged.stage (fun () ->
        incr scounter;
        ignore (Vmsim.Lru_stack.access stack (!scounter * 31 land 0x3FF)))
  in
  (* The replacement-policy victim path: the same access stream against
     an 8-way cache under each family, setting the pseudo-LRU
     bookkeeping cost against the LRU stamp scheme. *)
  let policy_kernel policy =
    let cache =
      Cachesim.Cache.create
        (Cachesim.Config.make ~associativity:8 ~policy (64 * 1024))
    in
    let counter = ref 0 in
    Staged.stage (fun () ->
        incr counter;
        ignore
          (Cachesim.Cache.access_block cache ~kind:Memsim.Event.Read
             ~source:Memsim.Event.App ~block:(!counter * 37 land 0xFFFF)))
  in
  [ Test.make ~name:"substrate:cache-access" cache_kernel;
    Test.make ~name:"substrate:forest-access" forest_kernel;
    Test.make ~name:"substrate:forest-batch-packed" batch_packed_kernel;
    Test.make ~name:"substrate:policy-lru-8way" (policy_kernel Cachesim.Policy.Lru);
    Test.make ~name:"substrate:policy-plru-8way"
      (policy_kernel Cachesim.Policy.Plru);
    Test.make ~name:"substrate:policy-qlru-8way"
      (policy_kernel (Cachesim.Policy.Qlru Cachesim.Policy.qlru_h11_m1));
    Test.make ~name:"substrate:policy-random-8way"
      (policy_kernel (Cachesim.Policy.Random 1));
    Test.make ~name:"substrate:lru-stack-access" stack_kernel ]

let run_tests tests =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ instance ] elt in
          let result = Analyze.one ols instance raw in
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              kernel_results := (Test.Elt.name elt, est) :: !kernel_results;
              Printf.printf "  %-28s %12.1f ns/run\n" (Test.Elt.name elt) est
          | _ -> Printf.printf "  %-28s (no estimate)\n" (Test.Elt.name elt))
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)
(* BENCH json                                                         *)
(* ------------------------------------------------------------------ *)

(* Machine-readable copy of the headline numbers, for CI trend checks
   and EXPERIMENTS.md.  LOCLAB_BENCH_JSON overrides the path; set it to
   the empty string to skip the file. *)
let bench_json_path =
  match Sys.getenv_opt "LOCLAB_BENCH_JSON" with
  | Some "" -> None
  | Some p -> Some p
  | None -> Some "loclab-bench.json"

(* Bench-json format version: bump when the object shape changes, so CI
   consumers can detect files from another era.  4 added the "serve"
   traffic-replay section; 5 the "ingest" reader-throughput section;
   6 the "obs" server-side stage-latency section. *)
let bench_format = 6

let git_rev () =
  let read cmd =
    let ic = Unix.open_process_in cmd in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None
    | exception Unix.Unix_error _ -> None
  in
  match read "git rev-parse --short HEAD 2>/dev/null" with
  | Some rev -> rev
  | None | (exception Sys_error _) -> "unknown"

(* Some true = uncommitted changes, Some false = clean, None = not a
   git checkout (or git unavailable). *)
let git_dirty () =
  let ic = Unix.open_process_in "git status --porcelain 2>/dev/null" in
  let b = Buffer.create 64 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some (Buffer.length b > 0)
  | _ -> None
  | exception Unix.Unix_error _ -> None

(* A path under results/ is a recorded baseline: committed alongside
   the rev it claims to describe, so writing one from a dirty or
   rev-less tree is refused unless LOCLAB_BENCH_ALLOW_DIRTY=1 opts into
   recording it with "dirty": true. *)
let is_recorded_path path =
  List.mem "results" (String.split_on_char '/' path)

(* Grid throughput of the boxed per-event pipeline (the commit before
   the packed rework), remeasured on this container at scale 0.25,
   jobs=1, immediately before the packed run was recorded — absolute
   numbers drift with machine load, so only a same-machine pairing is
   meaningful (the 4.0M figure in results/bench-scale0.25.json predates
   that load; see EXPERIMENTS.md). *)
let baseline_events_per_sec = 2_221_941.

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_bench_json ~rev ~dirty path =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"meta\": {\n";
  Printf.fprintf oc "    \"bench_format\": %d,\n" bench_format;
  Printf.fprintf oc "    \"git_rev\": \"%s\",\n" (json_escape rev);
  Printf.fprintf oc "    \"dirty\": %b,\n" dirty;
  Printf.fprintf oc "    \"artifact_schema_version\": %d,\n"
    Core.Artifact.schema_version;
  Printf.fprintf oc "    \"generated_at\": \"%s\",\n"
    (iso8601 (Unix.gettimeofday ()));
  Printf.fprintf oc "    \"micro_benchmarks\": %b\n" run_micro;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"scale\": %g,\n" scale;
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  Printf.fprintf oc "  \"grid\": {\n";
  Printf.fprintf oc "    \"fill_seconds\": %.3f,\n" !fill_seconds;
  Printf.fprintf oc "    \"events\": %d,\n" !grid_events;
  Printf.fprintf oc "    \"events_per_sec\": %.0f,\n"
    (float_of_int !grid_events /. !fill_seconds);
  Printf.fprintf oc "    \"baseline_events_per_sec\": %.0f,\n"
    baseline_events_per_sec;
  Printf.fprintf oc "    \"speedup_vs_baseline\": %.2f\n"
    (float_of_int !grid_events /. !fill_seconds /. baseline_events_per_sec);
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"scaling\": {\n";
  Printf.fprintf oc "    \"trace_cell\": \"%s\",\n" (json_escape scaling_cell);
  Printf.fprintf oc "    \"trace_events\": %d,\n" !scaling_trace_events;
  Printf.fprintf oc "    \"configs\": %d,\n" !scaling_configs;
  Printf.fprintf oc "    \"stat_identical\": %b,\n" !scaling_identical;
  Printf.fprintf oc "    \"curve\": [";
  let base_seconds =
    match !scaling_curve with
    | (_, s, _) :: _ -> s
    | [] -> 0.
  in
  List.iteri
    (fun i (j, seconds, rate) ->
      Printf.fprintf oc
        "%s\n      { \"jobs\": %d, \"seconds\": %.3f, \"events_per_sec\": \
         %.0f, \"speedup\": %.2f }"
        (if i = 0 then "" else ",")
        j seconds rate
        (if seconds > 0. then base_seconds /. seconds else 0.))
    !scaling_curve;
  if !scaling_curve <> [] then Printf.fprintf oc "\n    ";
  Printf.fprintf oc "]\n";
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"ingest\": {\n";
  Printf.fprintf oc "    \"events\": %d,\n" !ingest_events;
  Printf.fprintf oc "    \"text_bytes\": %d,\n" !ingest_text_bytes;
  Printf.fprintf oc "    \"binary_bytes\": %d,\n" !ingest_binary_bytes;
  Printf.fprintf oc "    \"text_read_events_per_sec\": %.0f,\n"
    !ingest_text_rate;
  Printf.fprintf oc "    \"binary_read_events_per_sec\": %.0f,\n"
    !ingest_binary_rate;
  Printf.fprintf oc "    \"replay\": [";
  List.iteri
    (fun i (j, seconds, rate) ->
      Printf.fprintf oc
        "%s\n      { \"jobs\": %d, \"seconds\": %.3f, \"events_per_sec\": \
         %.0f }"
        (if i = 0 then "" else ",")
        j seconds rate)
    !ingest_replay;
  if !ingest_replay <> [] then Printf.fprintf oc "\n    ";
  Printf.fprintf oc "]\n";
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"store\": {\n";
  Printf.fprintf oc "    \"cold_fill_seconds\": %.3f,\n" !fill_seconds;
  Printf.fprintf oc "    \"cold_store_hits\": %d,\n" !cold_hits;
  Printf.fprintf oc "    \"cold_simulated\": %d,\n" !cold_simulated;
  Printf.fprintf oc "    \"warm_fill_seconds\": %.3f,\n" !warm_fill_seconds;
  Printf.fprintf oc "    \"warm_store_hits\": %d,\n" !warm_hits;
  Printf.fprintf oc "    \"warm_simulated\": %d,\n" !warm_simulated;
  Printf.fprintf oc "    \"speedup\": %.1f\n"
    (!fill_seconds /. !warm_fill_seconds);
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"serve\": {\n";
  Printf.fprintf oc "    \"enabled\": %b,\n" run_serve;
  Printf.fprintf oc "    \"requests_per_client\": %d,\n"
    serve_requests_per_client;
  Printf.fprintf oc "    \"cold_every\": %d,\n" serve_cold_every;
  Printf.fprintf oc "    \"levels\": [";
  List.iteri
    (fun i (clients, n, seconds, rps, p50, p99) ->
      Printf.fprintf oc
        "%s\n      { \"clients\": %d, \"requests\": %d, \"seconds\": %.3f, \
         \"requests_per_sec\": %.1f, \"p50_us\": %.0f, \"p99_us\": %.0f }"
        (if i = 0 then "" else ",")
        clients n seconds rps p50 p99)
    !serve_levels;
  if !serve_levels <> [] then Printf.fprintf oc "\n    ";
  Printf.fprintf oc "]\n";
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"obs\": {\n";
  Printf.fprintf oc "    \"enabled\": %b,\n" run_serve;
  Printf.fprintf oc "    \"access_log_written\": %d,\n" !obs_access_written;
  Printf.fprintf oc "    \"access_log_sampled_out\": %d,\n"
    !obs_access_sampled;
  Printf.fprintf oc "    \"slow_requests_retained\": %d,\n"
    !obs_slow_requests;
  Printf.fprintf oc "    \"spans_dropped\": %d,\n" !obs_spans_dropped;
  Printf.fprintf oc "    \"stages\": [";
  List.iteri
    (fun i (name, count, p50, p99) ->
      Printf.fprintf oc
        "%s\n      { \"stage\": \"%s\", \"count\": %d, \"p50_us\": %.1f, \
         \"p99_us\": %.1f }"
        (if i = 0 then "" else ",")
        (json_escape name) count p50 p99)
    !obs_stages;
  if !obs_stages <> [] then Printf.fprintf oc "\n    ";
  Printf.fprintf oc "]\n";
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"kernels_ns_per_run\": {";
  let kernels = List.rev !kernel_results in
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "%s\n    \"%s\": %.1f"
        (if i = 0 then "" else ",")
        (json_escape name) est)
    kernels;
  if kernels <> [] then Printf.fprintf oc "\n  ";
  Printf.fprintf oc "}\n}\n";
  close_out oc

let () =
  if run_micro then begin
    Printf.printf
      "\n================ Bechamel micro-benchmarks ================\n";
    Printf.printf "\nAllocator churn kernels (4 mallocs + 4 frees per run):\n";
    run_tests allocator_tests;
    Printf.printf "\nSimulator substrate kernels:\n";
    run_tests substrate_tests;
    Printf.printf
      "\nExperiment regeneration (warm grid), one per table/figure:\n";
    run_tests experiment_tests
  end;
  let refused =
    match bench_json_path with
    | None -> false
    | Some path ->
        let rev = git_rev () in
        let dirty =
          match git_dirty () with Some d -> d | None -> true
        in
        let unclean = dirty || rev = "unknown" in
        let allow_dirty =
          Sys.getenv_opt "LOCLAB_BENCH_ALLOW_DIRTY" = Some "1"
        in
        if is_recorded_path path && unclean && not allow_dirty then begin
          Printf.eprintf
            "refusing to write recorded bench result %s: %s.\n\
             Commit first so the result matches a rev, or set \
             LOCLAB_BENCH_ALLOW_DIRTY=1 to record it with \"dirty\": true.\n"
            path
            (if rev = "unknown" then "git revision is unknown"
             else "the working tree has uncommitted changes");
          true
        end
        else begin
          write_bench_json ~rev ~dirty:unclean path;
          Printf.printf "\nbench json written to %s\n" path;
          false
        end
  in
  (* The store nests its derived cells in a sub-directory. *)
  let rec remove_tree path =
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if store_is_temp then remove_tree store_dir;
  if refused then exit 1
