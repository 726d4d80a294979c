(* The measuring half of the repository benchmark.  perfbench/run.py is
   the other half: it builds this program, runs it once per benchmark
   run, and turns the raw measurements it prints into named metrics.

   One invocation runs one workload:

   - grid-cold    `loclab all` on an empty store: fill every grid cell
                  (each written through), then render every experiment;
   - report-warm  `loclab report` over a store filled during set-up;
   - serve-mixed  a closed loop of client connections against an
                  in-process `loclab serve`, mixing warm cell reads,
                  cold cells and trace ingests from a seeded schedule.

   Every time is host time, taken around calls into the libraries'
   public functions from this file.  A plain run repeats set-up
   [setups] times, then times whole passes of the workload until
   [--seconds] have elapsed.  A [--trace] run times one pass untraced and
   one traced, then decomposes the workload's cells layer by layer
   (capture the trace once, replay it into each consumer alone), every
   layer call recorded as a Telemetry.Span of category "perfbench"; the
   Chrome trace goes to [--trace-out] and run.py derives self times
   from it.

   The last line of standard output is one JSON object of raw
   measurements; a failed output check is recorded there, never
   raised. *)

module Export = Metrics.Export

let workload = ref ""
let scale = ref 0.002
let seed = ref 1
let seconds = ref 10.
let traced = ref false
let jobs = ref (Exec.Pool.recommended_jobs ())
let clients = ref (Exec.Pool.recommended_jobs ())
let work_dir = ref "_perfbench/work"
let trace_out = ref "_perfbench/trace.json"

(* Set-up repetitions of a plain run; setup_s is their median. *)
let setups = 3

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME grid-cold, report-warm or serve-mixed");
      ("--scale", Arg.Set_float scale, "S workload scale (default 0.002)");
      ("--seed", Arg.Set_int seed, "N seed of the serve-mixed schedule");
      ("--seconds", Arg.Set_float seconds, "T time to spend on timed passes");
      ("--trace", Arg.Set traced, " per-layer (traced) run");
      ("--jobs", Arg.Set_int jobs, "J worker domains");
      ("--clients", Arg.Set_int clients, "C serve-mixed client connections");
      ("--dir", Arg.Set_string work_dir, "DIR scratch directory (stores, sockets)");
      ("--trace-out", Arg.Set_string trace_out, "PATH Chrome trace of a traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME [options]";
  if not (!scale > 0. && !scale <= 4.) then failwith "--scale must be in (0, 4]";
  if !jobs < 1 || !clients < 1 || not (!seconds > 0.) then
    failwith "--jobs, --clients and --seconds must be positive"

let () = Telemetry.setup_logging ()

(* ---- helpers --------------------------------------------------------- *)

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The benchmark's own spans.  The tracer stays disabled while a traced
   run executes, so the libraries' spans are never recorded; each
   benchmark span switches it on only to record itself once finished. *)
let tracing = ref false

let span name f =
  if not !tracing then f ()
  else begin
    let ts = Telemetry.Span.now_us () in
    let record () =
      let dur = Telemetry.Span.now_us () -. ts in
      Telemetry.Span.set_enabled true;
      Telemetry.Span.complete ~cat:"perfbench" name ~ts ~dur;
      Telemetry.Span.set_enabled false
    in
    Fun.protect ~finally:record f
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir name =
  let d = Filename.concat !work_dir name in
  rm_rf d;
  d

(* Output checks: every checked operation counts as attempted; a failed
   one is kept with its reason.  Client threads check concurrently. *)
let checks_mu = Mutex.create ()
let attempted = ref 0
let failures = ref []

let check name ok detail =
  Mutex.lock checks_mu;
  incr attempted;
  if not ok then failures := (name ^ ": " ^ detail ()) :: !failures;
  Mutex.unlock checks_mu

let hex s = Digest.to_hex (Digest.string s)

(* One digest over a set of stored cells: (store digest, artifact bytes)
   pairs, order-independent.  Two commits that simulate identically
   print the same value. *)
let artifacts_digest cells =
  List.sort_uniq compare cells
  |> List.map (fun (digest, bytes) -> digest ^ " " ^ hex bytes)
  |> String.concat "\n" |> hex

(* ---- the grid --------------------------------------------------------- *)

let grid_cells =
  List.concat_map (fun (e : Core.Experiment.t) -> e.cells) Core.Experiment.all
  |> List.sort_uniq compare

let ncells = List.length grid_cells

(* Everything `loclab all` / `loclab report` print, in the same bytes. *)
let render_all ctx =
  let b = Buffer.create 65536 in
  List.iter
    (fun (e : Core.Experiment.t) ->
      let out = span ("core.render." ^ e.id) (fun () -> e.render ctx) in
      Printf.bprintf b "================ %s ================\n%s\n" e.id out)
    Core.Experiment.all;
  Buffer.contents b

let grid_artifacts (ctx : Core.Context.t) =
  List.map
    (fun (profile, allocator) -> Core.Runs.get ctx.runs ~profile ~allocator)
    grid_cells

let stored art =
  (Core.Artifact.digest_of_meta art.Core.Artifact.meta, Core.Artifact.encode art)

let data_refs arts =
  List.fold_left
    (fun n (a : Core.Artifact.t) -> n + a.summary.Core.Artifact.data_refs)
    0 arts

(* ---- layer decomposition ---------------------------------------------- *)

(* The consumers a grid cell feeds, each replayable alone: the LRU
   configurations of [Runs.standard_configs] by block size (one forest
   family each), every other policy on its own, the paper's two-level
   hierarchy and the page simulator.  A consumer that standard_configs
   no longer carries still prints, as zero work. *)
let lru_family block =
  List.filter
    (fun (c : Cachesim.Config.t) ->
      c.block_bytes = block && Cachesim.Policy.is_lru c.policy)
    Core.Runs.standard_configs

let policy_configs pred =
  List.filter (fun (c : Cachesim.Config.t) -> pred c.policy)
    Core.Runs.standard_configs

let cache_consumers =
  List.map
    (fun b -> (Printf.sprintf "cachesim.family_b%d" b, lru_family b))
    [ 32; 16; 64; 128 ]
  @ [ ("cachesim.plru", policy_configs (function Cachesim.Policy.Plru -> true | _ -> false));
      ("cachesim.qlru", policy_configs (function Cachesim.Policy.Qlru _ -> true | _ -> false)) ]

let paper_hierarchy () =
  Cachesim.Hierarchy.create_levels
    [ Cachesim.Config.make (16 * 1024); Cachesim.Config.make (256 * 1024) ]

let counts : (string, int) Hashtbl.t = Hashtbl.create 8

let count name n =
  Hashtbl.replace counts name
    (n + Option.value ~default:0 (Hashtbl.find_opt counts name))

(* One cell, capture-then-replay per consumer, plus the same cell run
   in situ through Runs (its time minus the driver and the replays is
   the fan-out cost).  Returns the in-situ artifact. *)
let decompose_cell ~profile ~allocator ~scale =
  span "decompose.cell" @@ fun () ->
  let prof = Workload.Programs.find profile in
  let drive sink =
    let heap = Allocators.Heap.create () in
    let alloc = Core.Runs.build_allocator ~profile_key:profile ~allocator heap in
    Workload.Driver.run_with ~sink ~scale ~profile:prof ~heap ~alloc ()
  in
  let r = span "workload.driver" (fun () -> drive Memsim.Sink.null) in
  let s = r.Workload.Driver.alloc_stats in
  count "workload.events" r.Workload.Driver.data_refs;
  count "allocators.calls"
    (s.Allocators.Alloc_stats.malloc_calls + s.free_calls + s.realloc_calls);
  let buf = Memsim.Trace_buffer.create () in
  ignore (span "memsim.capture" (fun () -> drive (Memsim.Trace_buffer.sink buf)));
  let replay name sink = span name (fun () -> Memsim.Trace_buffer.replay buf (sink ())) in
  replay "memsim.checksum" (fun () ->
      Memsim.Sink.Checksum.sink (Memsim.Sink.Checksum.create ()));
  List.iter
    (fun (name, configs) ->
      if configs <> [] then
        replay name (fun () -> Cachesim.Multi.sink (Cachesim.Multi.create configs)))
    cache_consumers;
  replay "cachesim.hierarchy" (fun () -> Cachesim.Hierarchy.sink (paper_hierarchy ()));
  replay "vmsim.page_sim" (fun () -> Vmsim.Page_sim.sink (Vmsim.Page_sim.create ()));
  let art =
    span "core.cell_insitu" (fun () ->
        Core.Runs.get (Core.Runs.create ~scale ()) ~profile ~allocator)
  in
  let refs = art.summary.Core.Artifact.data_refs in
  check "decomposition: driver and captured events equal the cell's data_refs"
    (r.Workload.Driver.data_refs = refs && Memsim.Trace_buffer.length buf = refs)
    (fun () -> profile ^ "/" ^ allocator);
  art

(* Store and codec layers over a set of artifacts, in a scratch store. *)
let decompose_store arts =
  let dir = fresh_dir "layers-store" in
  let store = Store.open_ dir in
  List.iter
    (fun art ->
      let digest = Core.Artifact.digest_of_meta art.Core.Artifact.meta in
      let bytes = span "core.artifact_encode" (fun () -> Core.Artifact.encode art) in
      count "store.bytes" (String.length bytes);
      span "store.put" (fun () -> Store.put store ~digest bytes);
      let back =
        match span "store.find" (fun () -> Store.find store ~digest) with
        | Store.Hit payload -> payload
        | Store.Miss | Store.Corrupt _ -> ""
      in
      let ok =
        match span "core.artifact_decode" (fun () -> Core.Artifact.decode back) with
        | Ok a -> Core.Artifact.equal a art
        | Error _ -> false
      in
      check "decomposition: store round trip" ok (fun () -> digest))
    arts;
  rm_rf dir

(* Every grid cell of [ctx], decomposed; each in-situ artifact must equal
   the one the pass produced or read. *)
let decompose_grid ctx =
  let arts = grid_artifacts ctx in
  List.iter2
    (fun (profile, allocator) art ->
      check "decomposition: in-situ artifact equals the pass's"
        (Core.Artifact.equal art (decompose_cell ~profile ~allocator ~scale:!scale))
        (fun () -> profile ^ "/" ^ allocator))
    grid_cells arts;
  decompose_store arts

(* ---- raw result ------------------------------------------------------- *)

let setup_s = ref []
let passes : Export.json list ref = ref []
let digests : (string * Export.json) list ref = ref []
let extra : (string * Export.json) list ref = ref []

(* Every pass starts from a compacted heap, as a fresh process would,
   so one pass's garbage does not bill the next. *)
let run_pass pass i =
  Gc.compact ();
  Export.Obj (pass i)

(* Timed passes: until [--seconds] have elapsed, at least one and at
   most [max_passes].  [pass i] returns its own fields. *)
let measure ?(max_passes = max_int) pass =
  let t0 = now () in
  let rec go i =
    if i = 0 || (now () -. t0 < !seconds && i < max_passes) then begin
      passes := run_pass pass i :: !passes;
      go (i + 1)
    end
  in
  go 0;
  passes := List.rev !passes

let timed f =
  let c0 = cpu () and t0 = now () in
  let r = f () in
  (r, now () -. t0, cpu () -. c0)

let set_up f =
  Gc.compact ();
  let r, wall, _ = timed f in
  setup_s := wall :: !setup_s;
  r

(* A traced run: pass 0 untraced, pass 1 traced, then the layer
   decomposition [decompose ()] under the same tracer. *)
let traced_run pass decompose =
  let untraced = run_pass pass 0 in
  Telemetry.Span.reset ~capacity:(1 lsl 18) ();
  tracing := true;
  let tracedp = run_pass pass 1 in
  decompose ();
  tracing := false;
  Telemetry.Span.write_chrome ~path:!trace_out;
  passes := [ untraced; tracedp ]

(* ---- grid-cold -------------------------------------------------------- *)

let grid_cold () =
  (* Set-up is a warm-up: one whole cold `all` at a tenth of the
     workload scale, so heap growth, code pages and the first worker
     domains are paid before timing. *)
  let warm_up i =
    let dir = fresh_dir (Printf.sprintf "warmup-%d" i) in
    let ctx =
      Core.Context.create ~scale:(!scale /. 10.) ~jobs:!jobs
        ~store:(Store.open_ dir) ()
    in
    Core.Experiment.warm_all ctx;
    ignore (render_all ctx);
    rm_rf dir
  in
  let reference = ref None in
  let last_ctx = ref None in
  let pass i =
    let dir = fresh_dir (Printf.sprintf "grid-%d" i) in
    let store = Store.open_ dir in
    let ctx = Core.Context.create ~scale:!scale ~jobs:!jobs ~store () in
    let (fill, out), wall, cpu =
      timed (fun () ->
          let (), fill, _ =
            timed (fun () -> span "core.fill" (fun () -> Core.Experiment.warm_all ctx))
          in
          (fill, render_all ctx))
    in
    let runs = ctx.Core.Context.runs in
    check "grid-cold: every grid cell simulated, none read from the store"
      (Core.Runs.simulated runs = ncells && Core.Runs.store_hits runs = 0)
      (fun () ->
        Printf.sprintf "%d simulated, %d store hits"
          (Core.Runs.simulated runs) (Core.Runs.store_hits runs));
    check "grid-cold: every cell written through"
      (List.length (Store.ls store) = ncells)
      (fun () -> Printf.sprintf "%d cells stored" (List.length (Store.ls store)));
    let arts = grid_artifacts ctx in
    (match !reference with
    | None ->
        reference := Some out;
        digests :=
          [ ("artifacts", Export.String (artifacts_digest (List.map stored arts)));
            ("output", Export.String (hex out)) ]
    | Some first ->
        check "grid-cold: output identical across passes" (out = first)
          (fun () -> "pass output differs"));
    rm_rf dir;
    last_ctx := Some ctx;
    [ ("wall_s", Export.Float wall);
      ("cpu_s", Export.Float cpu);
      ("fill_s", Export.Float fill);
      ("events", Export.Int (data_refs arts)) ]
  in
  if !traced then begin
    warm_up 0;
    traced_run pass (fun () -> decompose_grid (Option.get !last_ctx))
  end
  else begin
    for i = 0 to setups - 1 do set_up (fun () -> warm_up i) done;
    measure pass
  end

(* ---- report-warm ------------------------------------------------------ *)

let report_warm () =
  let wanted = List.concat_map (fun (e : Core.Experiment.t) -> e.cells) Core.Experiment.all in
  (* Set-up is a cold `loclab all` into a fresh store; its output is
     what every warm report must reproduce byte for byte. *)
  let fill () =
    let store = Store.open_ (fresh_dir "store") in
    let ctx = Core.Context.create ~scale:!scale ~jobs:!jobs ~store () in
    Core.Experiment.warm_all ctx;
    (store, render_all ctx)
  in
  let store, cold = ref None, ref "" in
  for _ = 1 to if !traced then 1 else setups do
    rm_rf (Filename.concat !work_dir "store");
    let s, out = if !traced then fill () else set_up fill in
    store := Some s;
    cold := out
  done;
  let store = Option.get !store in
  let last_ctx = ref None in
  let pass i =
    let ctx = Core.Context.create ~scale:!scale ~jobs:!jobs ~store () in
    let runs = ctx.Core.Context.runs in
    let (missing, out), wall, cpu =
      timed (fun () ->
          let missing = span "store.load" (fun () -> Core.Runs.load runs wanted) in
          (missing, render_all ctx))
    in
    check "report-warm: the store holds every grid cell" (missing = [])
      (fun () -> Printf.sprintf "%d cells missing" (List.length missing));
    check "report-warm: no cell simulated"
      (Core.Runs.simulated runs = 0 && Core.Runs.store_hits runs = ncells)
      (fun () ->
        Printf.sprintf "%d simulated, %d store hits" (Core.Runs.simulated runs)
          (Core.Runs.store_hits runs));
    check "report-warm: report bytes equal the cold `all` bytes" (out = !cold)
      (fun () -> "report differs from all");
    if i = 0 then
      digests :=
        [ ("artifacts",
           Export.String (artifacts_digest (List.map stored (grid_artifacts ctx))));
          ("output", Export.String (hex out)) ];
    last_ctx := Some ctx;
    [ ("wall_s", Export.Float wall); ("cpu_s", Export.Float cpu) ]
  in
  if !traced then
    traced_run pass (fun () -> decompose_grid (Option.get !last_ctx))
  else measure pass

(* ---- serve-mixed ------------------------------------------------------ *)

type cls = Warm | Cold | Ingest of Memsim.Trace.Source.format

let cls_name = function
  | Warm -> "warm"
  | Cold -> "cold"
  | Ingest f -> "ingest_" ^ Memsim.Trace.Source.format_to_string f

type item = {
  cls : cls;
  req : Serve.Protocol.request;
  digest : string;  (* the digest the reply must carry *)
  events : int;  (* ingest: the capture's event count *)
}

(* Per pass: every paper grid cell once as a cold cell, one text and one
   binary capture per program as ingests, and [warm_per_pass] warm
   reads of seeded grid cells, in a seeded order.  Fixed class counts
   and fixed multisets keep the work per pass the same for every seed:
   the seed picks the order, the warm cells, which allocator each
   program's capture runs (each allocator once per format), and where
   in its stratum of +-5% around the base each scale falls.  Every
   (pass, slot) owns its own stratum, so no scale repeats and no cold
   cell or capture is ever warm. *)
let max_serve_passes = 32
let warm_per_pass = 140
let capture_scale () = !scale /. 8.

let jittered rng ~base ~slot ~slots =
  let u = (float_of_int slot +. Random.State.float rng 1.) /. float_of_int slots in
  let s = base *. (0.95 +. (0.1 *. u)) in
  Float.round (s *. 1e7) /. 1e7

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let paper_cells =
  List.concat_map
    (fun (p, _) -> List.map (fun (a, _) -> (p, a)) Core.Context.paper_allocators)
    Core.Context.five_programs

let capture ~program ~allocator ~scale fmt =
  let buf = Memsim.Trace_buffer.create () in
  ignore
    (Workload.Driver.run ~sink:(Memsim.Trace_buffer.sink buf) ~scale
       ~profile:(Workload.Programs.find program) ~allocator ());
  Memsim.Trace.write fmt (fun sink -> Memsim.Trace_buffer.replay buf sink)

let warm_item (program, allocator) =
  let seed = (Workload.Programs.find program).Workload.Profile.seed in
  { cls = Warm;
    req = Serve.Protocol.Run_cell { program; allocator; scale = !scale };
    digest = Core.Artifact.digest ~program ~allocator ~scale:!scale ~seed;
    events = 0 }

let plan_pass p =
  let rng = Random.State.make [| !seed; p |] in
  let cold_slots = List.length paper_cells * max_serve_passes in
  let cold =
    List.mapi
      (fun k (program, allocator) ->
        let scale =
          jittered rng ~base:!scale ~slot:((k * max_serve_passes) + p) ~slots:cold_slots
        in
        let seed = (Workload.Programs.find program).Workload.Profile.seed in
        { cls = Cold;
          req = Serve.Protocol.Run_cell { program; allocator; scale };
          digest = Core.Artifact.digest ~program ~allocator ~scale ~seed;
          events = 0 })
      paper_cells
  in
  let captures =
    List.concat_map
      (fun fmt ->
        let allocators = Array.of_list (List.map fst Core.Context.paper_allocators) in
        shuffle rng allocators;
        List.mapi
          (fun i (program, _) ->
            (program, allocators.(i mod Array.length allocators), fmt))
          Core.Context.five_programs)
      Memsim.Trace.Source.[ Text; Binary ]
  in
  let ingest_slots = List.length captures * max_serve_passes in
  let ingest =
    List.mapi
      (fun k (program, allocator, fmt) ->
        let scale =
          jittered rng ~base:(capture_scale ()) ~slot:((k * max_serve_passes) + p)
            ~slots:ingest_slots
        in
        let data = capture ~program ~allocator ~scale fmt in
        let events, ident = Core.Runs.trace_ident ~format:fmt ~data in
        { cls = Ingest fmt;
          req =
            Serve.Protocol.Ingest
              { format = Memsim.Trace.Source.format_to_string fmt; trace = data };
          digest = Core.Runs.trace_digest ~ident;
          events })
      captures
  in
  let cells = Array.of_list grid_cells in
  let warm =
    List.init warm_per_pass (fun _ ->
        warm_item cells.(Random.State.int rng (Array.length cells)))
  in
  let items = Array.of_list (cold @ ingest @ warm) in
  shuffle rng items;
  items

type serving = {
  store : Store.t;
  server : Serve.Server.t;
  thread : Thread.t;
  addr : Serve.Protocol.addr;
  plan : item array array;
  warm_payloads : (string, string) Hashtbl.t;
}

let stop_serving s =
  Serve.Server.shutdown s.server;
  Thread.join s.thread

let start_serving i ~passes =
  let dir = fresh_dir (Printf.sprintf "serve-%d" i) in
  let store = Store.open_ (Filename.concat dir "store") in
  let ctx = Core.Context.create ~scale:!scale ~jobs:!jobs ~store () in
  Core.Experiment.warm_all ctx;
  let warm_payloads = Hashtbl.create 64 in
  List.iter
    (fun art ->
      let digest, bytes = stored art in
      Hashtbl.replace warm_payloads digest bytes)
    (grid_artifacts ctx);
  let plan = Array.init passes plan_pass in
  let server =
    Serve.Server.create ~jobs:!jobs ~store
      ~listen:(Serve.Protocol.Unix_path (Filename.concat dir "serve.sock")) ()
  in
  let thread = Thread.create Serve.Server.run server in
  let addr = Serve.Server.listen_addr server in
  (match
     Serve.Client.with_connection ~timeout:30. addr (fun c ->
         Serve.Client.request c Serve.Protocol.Health)
   with
  | Ok (Serve.Protocol.Health_ok _) -> ()
  | _ -> failwith "serve-mixed: the server did not answer health");
  { store; server; thread; addr; plan; warm_payloads }

let check_reply s it reply =
  let name = "serve-mixed: " ^ cls_name it.cls ^ " reply" in
  match reply with
  | Some (Ok (Serve.Protocol.Cell_ok { digest; artifact })) ->
      let ok =
        digest = it.digest
        &&
        match it.cls with
        | Warm -> Hashtbl.find_opt s.warm_payloads digest = Some artifact
        | Cold | Ingest _ -> (
            (match Store.find s.store ~digest with
            | Store.Hit stored -> stored = artifact
            | Store.Miss | Store.Corrupt _ -> false)
            &&
            match (Core.Artifact.decode artifact, it.req) with
            | Ok a, Serve.Protocol.Run_cell { program; allocator; scale } ->
                a.meta.program = program && a.meta.allocator = allocator
                && a.meta.scale = scale
            | Ok a, _ -> a.summary.Core.Artifact.data_refs = it.events
            | Error _, _ -> false)
      in
      check name ok (fun () -> "reply does not match " ^ it.digest);
      if ok then Some (digest, artifact) else None
  | Some (Ok (Serve.Protocol.Error { message; _ })) ->
      check name false (fun () -> "server error: " ^ message);
      None
  | Some (Ok _) ->
      check name false (fun () -> "unexpected response");
      None
  | Some (Error e) ->
      check name false (fun () -> Serve.Client.error_to_string e);
      None
  | None ->
      check name false (fun () -> "no reply");
      None

let scrape_stages s =
  match Serve.Client.http_get ~timeout:30. s.addr "/status" with
  | Error e -> failwith ("serve-mixed /status: " ^ Serve.Client.error_to_string e)
  | Ok body -> (
      match Export.of_string body with
      | Error msg -> failwith ("serve-mixed /status: " ^ msg)
      | Ok status ->
          Option.value ~default:(Export.List [])
            (Export.member "stages" status))

(* A closed loop of [!clients] connections over [items]: each client
   sends the next unsent item once its previous reply is in.  Returns
   every item's latency and reply. *)
let closed_loop s items =
  let n = Array.length items in
  let latency = Array.make n 0. in
  let replies = Array.make n None in
  let next = Atomic.make 0 in
  let client () =
    try
      Serve.Client.with_connection ~timeout:120. s.addr (fun conn ->
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              let q0 = now () in
              let r = Serve.Client.request conn items.(i).req in
              latency.(i) <- now () -. q0;
              replies.(i) <- Some r;
              loop ()
            end
          in
          loop ())
    with e -> check "serve-mixed: client connection" false (fun () -> Printexc.to_string e)
  in
  List.init !clients (fun _ -> Thread.create client ()) |> List.iter Thread.join;
  (latency, replies)

(* Warm reads of every grid cell for [warm_up_s] before the first timed
   pass, so the first passes do not pay for the connection threads and
   the host's wake-up path settling: without it they ran up to half as
   slow again as the later ones. *)
let warm_up_s = 2.

let warm_up s =
  let items = Array.of_list (List.map warm_item grid_cells) in
  let t0 = now () in
  while now () -. t0 < warm_up_s do
    let _, replies = closed_loop s items in
    Array.iteri (fun i it -> ignore (check_reply s it replies.(i))) items
  done

let serve_mixed () =
  let passes = if !traced then 2 else max_serve_passes in
  let serving = ref None in
  for i = 0 to (if !traced then 1 else setups) - 1 do
    Option.iter stop_serving !serving;
    (* Unreferenced before the next set-up, so two plans never share
       the heap. *)
    serving := None;
    let start () = start_serving i ~passes in
    serving := Some (if !traced then start () else set_up start)
  done;
  let s = Option.get !serving in
  warm_up s;
  let replied = ref [] in
  let pass p =
    let items = s.plan.(p) in
    let (latency, replies), wall, cpu =
      timed (fun () -> span "serve.closed_loop" (fun () -> closed_loop s items))
    in
    let ok = Array.mapi (fun i it -> check_reply s it replies.(i)) items in
    replied := Array.to_list ok |> List.filter_map Fun.id;
    if p = 0 then
      digests :=
        [ ("artifacts",
           Export.String
             (Array.to_list ok
             |> List.map (function Some (d, a) -> d ^ " " ^ hex a | None -> "-")
             |> String.concat "\n" |> hex)) ];
    let by cls unit_scale =
      Export.List
        (List.filter_map Fun.id
           (Array.to_list
              (Array.mapi
                 (fun i it ->
                   if cls it.cls then Some (Export.Float (latency.(i) *. unit_scale))
                   else None)
                 items)))
    in
    [ ("wall_s", Export.Float wall);
      ("cpu_s", Export.Float cpu);
      ("requests", Export.Int (Array.length items));
      ("warm_us", by (( = ) Warm) 1e6);
      ("cold_ms", by (( = ) Cold) 1e3);
      ("ingest_ms", by (function Ingest _ -> true | _ -> false) 1e3) ]
  in
  if !traced then
    traced_run pass (fun () ->
        extra := [ ("stages", scrape_stages s) ];
        let items = Array.to_list s.plan.(1) in
        List.iter
          (fun it ->
            match it.req with
            | Serve.Protocol.Run_cell { program; allocator; scale } when it.cls = Cold ->
                ignore (decompose_cell ~profile:program ~allocator ~scale)
            | Serve.Protocol.Ingest { trace; _ } ->
                let fmt = match it.cls with Ingest f -> f | _ -> assert false in
                let buf = Memsim.Trace_buffer.create () in
                ignore
                  (span ("memsim.trace_read_" ^ Memsim.Trace.Source.format_to_string fmt)
                     (fun () -> Memsim.Trace.read fmt trace (Memsim.Trace_buffer.sink buf)));
                let family = lru_family (List.hd Core.Runs.standard_configs).block_bytes in
                ignore
                  (span "cachesim.shard_replay" (fun () ->
                       Cachesim.Shard.replay ~domains:1 ~configs:family buf))
            | _ -> ())
          items;
        decompose_store
          (List.filter_map
             (fun (_, a) -> Result.to_option (Core.Artifact.decode a))
             (List.sort_uniq compare !replied)))
  else measure ~max_passes:passes pass;
  stop_serving s

(* ---- main ------------------------------------------------------------- *)

let () =
  let t0 = now () in
  (match !workload with
  | "grid-cold" -> grid_cold ()
  | "report-warm" -> report_warm ()
  | "serve-mixed" -> serve_mixed ()
  | w -> failwith ("unknown workload " ^ w));
  rm_rf !work_dir;
  let result =
    Export.Obj
      ([ ("workload", Export.String !workload);
         ("scale", Export.Float !scale);
         ("seed", Export.Int !seed);
         ("jobs", Export.Int !jobs);
         ("cells", Export.Int ncells);
         ("traced", Export.Bool !traced);
         ("elapsed_s", Export.Float (now () -. t0));
         ("setup_s", Export.List (List.rev_map (fun s -> Export.Float s) !setup_s));
         ("passes", Export.List !passes);
         ("digests", Export.Obj !digests);
         ("counts",
          Export.Obj
            (Hashtbl.fold (fun k v acc -> (k, Export.Int v) :: acc) counts []));
         ("attempted", Export.Int !attempted);
         ("failures", Export.List (List.rev_map (fun f -> Export.String f) !failures));
         ("trace_out", if !traced then Export.String !trace_out else Export.Null) ]
      @ !extra)
  in
  print_endline (Export.to_string result)
