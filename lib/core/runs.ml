let log_src = Logs.Src.create "loclab.runs" ~doc:"loclab run grid"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  scale : float;
  jobs : int;
  store : Store.t option;
  memo : (string * string, Artifact.t) Hashtbl.t;
  mutable store_hits : int;
  mutable simulated : int;
}

let standard_configs =
  Cachesim.Config.paper_direct_mapped
  @ List.map
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
  (* Pseudo-LRU members at the 16K 8-way point: exercised through the
     Multi per-config fallback (no forest inclusion outside LRU), they
     let renderers compare replacement policies on the paper's grid. *)
  @ [ Cachesim.Config.make ~associativity:8 ~policy:Cachesim.Policy.Plru
        (16 * 1024);
      Cachesim.Config.make ~associativity:8
        ~policy:(Cachesim.Policy.Qlru Cachesim.Policy.qlru_h11_m1)
        (16 * 1024) ]

let create ?(scale = 0.2) ?(jobs = 1) ?store () =
  (* Not an assert: -noassert builds must still reject a zero-step
     grid instead of looping or dividing by zero deep in a driver. *)
  if not (scale > 0.) then invalid_arg "Runs.create: scale must be > 0";
  if jobs < 1 then invalid_arg "Runs.create: jobs must be >= 1";
  { scale;
    jobs;
    store;
    memo = Hashtbl.create 64;
    store_hits = 0;
    simulated = 0 }

let scale t = t.scale
let jobs t = t.jobs
let store t = t.store
let store_hits t = t.store_hits
let simulated t = t.simulated

(* "custom" is the synthesized allocator: train its size classes on the
   profile's own request mix, like CustoMalloc generating an allocator
   for a measured program. *)
let build_allocator ~profile_key ~allocator heap =
  if allocator = "custom" then begin
    let profile = Workload.Programs.find profile_key in
    let histogram =
      Workload.Dist.to_histogram profile.Workload.Profile.size_dist
        ~scale:100_000
    in
    Allocators.Custom.allocator (Allocators.Custom.create_for ~histogram heap)
  end
  else Allocators.Registry.build allocator heap

let cells_f =
  Telemetry.Metrics.Counter.family ~name:"loclab_cells_total"
    ~help:"Grid cells resolved, by how they were satisfied"
    ~labels:[ "source" ] ()

let cell_memo_c = Telemetry.Metrics.Counter.labels cells_f [ "memo" ]
let cell_store_c = Telemetry.Metrics.Counter.labels cells_f [ "store" ]
let cell_sim_c = Telemetry.Metrics.Counter.labels cells_f [ "simulated" ]

let paper_hierarchy () =
  Cachesim.Hierarchy.create_levels
    [ Cachesim.Config.make (16 * 1024); Cachesim.Config.make (256 * 1024) ]

(* ---- the consumer set ----------------------------------------------- *)

(* What the consumers saw of one cell's event stream. *)
type observed = {
  caches : (Cachesim.Config.t * Cachesim.Stats.t) list;
  hierarchy : (Cachesim.Config.t * Cachesim.Stats.t) list;
  fault_curve : Vmsim.Fault_curve.t;
}

(* Every cell, synthetic or external, feeds the same consumers: the
   standard sweep, the paper hierarchy and the page simulator.  [feed]
   delivers the whole stream to each of their sinks — a driver fans
   them out over its one run, a captured trace replays into each in
   turn (one consumer's state in cache at a time) — and its result
   comes back beside what the consumers observed.  The stream's
   checksum is taken where the stream originates: beside the driver,
   or in [capture]. *)
let simulate feed =
  let multi = Cachesim.Multi.create standard_configs in
  let hier = paper_hierarchy () in
  let pages = Vmsim.Page_sim.create () in
  let fed =
    feed
      [ Cachesim.Multi.sink multi;
        Cachesim.Hierarchy.sink hier;
        Vmsim.Page_sim.sink pages ]
  in
  ( fed,
    { caches = Cachesim.Multi.results multi;
      hierarchy = Cachesim.Hierarchy.results hier;
      fault_curve = Vmsim.Page_sim.curve pages } )

let run t ~profile ~allocator =
  Telemetry.Span.with_span ~cat:"cell" (profile ^ "/" ^ allocator) @@ fun () ->
  let prof = Workload.Programs.find profile in
  let heap = Allocators.Heap.create () in
  let alloc = build_allocator ~profile_key:profile ~allocator heap in
  let checksum = Memsim.Sink.Checksum.create () in
  let result, o =
    simulate (fun sinks ->
        let sink =
          Memsim.Sink.fanout (sinks @ [ Memsim.Sink.Checksum.sink checksum ])
        in
        Workload.Driver.run_with ~sink ~scale:t.scale ~profile:prof ~heap
          ~alloc ())
  in
  Artifact.of_run ~program:profile ~allocator ~scale:t.scale
    ~trace_checksum:(Memsim.Sink.Checksum.value checksum)
    ~result ~caches:o.caches ~hierarchy:o.hierarchy ~fault_curve:o.fault_curve
    ()

(* ---- the resolution path -------------------------------------------- *)

(* The one rule for accepting a stored payload, shared by every reader
   and by [store gc]: it must decode, and its metadata must digest to
   the digest it is filed under. *)
let validate ~digest payload =
  match Artifact.decode payload with
  | Error reason -> Error ("undecodable artifact: " ^ reason)
  | Ok art ->
      let filed = Artifact.digest_of_meta art.Artifact.meta in
      if filed = digest then Ok art
      else Error (Printf.sprintf "metadata digests to %s (misfiled cell)" filed)

(* Any failure — absent, truncated, CRC mismatch, or rejected by
   [validate] — degrades to [None], i.e. to re-simulation; corruption
   is reported, never fatal. *)
let read store ~digest =
  match Store.find store ~digest with
  | Store.Miss | Store.Corrupt _ -> None (* Corrupt logged by Store *)
  | Store.Hit payload -> (
      match validate ~digest payload with
      | Ok art -> Some (payload, art)
      | Error reason ->
          Log.warn (fun m -> m "cell %s: %s; re-simulating" digest reason);
          None)

let stored t ~digest =
  match t.store with
  | None -> None
  | Some store -> Option.map snd (read store ~digest)

let write_through t art =
  match t.store with
  | None -> ()
  | Some store ->
      Store.put store
        ~digest:(Artifact.digest_of_meta art.Artifact.meta)
        (Artifact.encode art)

(* Every resolved cell enters the memo here, counted by where it came
   from; a simulated one is written through first. *)
let admit t ((program, allocator) as key) source art =
  (match source with
  | `Store ->
      t.store_hits <- t.store_hits + 1;
      Telemetry.Metrics.Counter.inc cell_store_c
  | `Simulated ->
      t.simulated <- t.simulated + 1;
      Telemetry.Metrics.Counter.inc cell_sim_c;
      write_through t art);
  Log.debug (fun m ->
      m "cell (%s, %s): %s" program allocator
        (match source with `Store -> "store hit" | `Simulated -> "simulated"));
  Hashtbl.replace t.memo key art

(* memo → validated store read → [compute], written through.  [digest]
   is forced only on a memo miss. *)
let resolve t key ~digest compute =
  match Hashtbl.find_opt t.memo key with
  | Some art ->
      Telemetry.Metrics.Counter.inc cell_memo_c;
      art
  | None ->
      let art, source =
        match stored t ~digest:(digest ()) with
        | Some art -> (art, `Store)
        | None -> (compute (), `Simulated)
      in
      admit t key source art;
      art

let cell_digest t ~profile ~allocator =
  let prof = Workload.Programs.find profile in
  Artifact.digest ~program:profile ~allocator ~scale:t.scale
    ~seed:prof.Workload.Profile.seed

let get t ~profile ~allocator =
  resolve t (profile, allocator)
    ~digest:(fun () -> cell_digest t ~profile ~allocator)
    (fun () -> run t ~profile ~allocator)

let dedupe_missing t cells =
  (* Keep first-occurrence order and drop cells the memo already holds:
     the pending list is both the work list and the merge order. *)
  let seen = Hashtbl.create 16 in
  List.rev
    (List.fold_left
       (fun acc key ->
         if Hashtbl.mem t.memo key || Hashtbl.mem seen key then acc
         else begin
           Hashtbl.replace seen key ();
           key :: acc
         end)
       [] cells)

let load t cells =
  List.filter
    (fun ((profile, allocator) as key) ->
      match stored t ~digest:(cell_digest t ~profile ~allocator) with
      | Some art ->
          admit t key `Store art;
          false
      | None -> true
      | exception Not_found -> true (* unknown profile: let [run] raise *))
    (dedupe_missing t cells)

let prefetch t cells =
  (* Serve what the persistent store already holds (cheap sequential
     I/O), then simulate only the genuinely cold cells in parallel. *)
  match load t cells with
  | [] -> ()
  | pending ->
      (* Every cell is self-contained (own heap, RNG, sinks), so the
         workers never touch [t.memo] or the store; results come back in
         submission order and are merged — and written through — here,
         on the calling domain.  A parallel fill is therefore
         bit-identical to a sequential one. *)
      let artifacts =
        Exec.Pool.with_pool
          ~jobs:(min t.jobs (List.length pending))
          (fun pool ->
            Exec.Pool.map pool
              (fun (profile, allocator) -> run t ~profile ~allocator)
              pending)
      in
      List.iter2 (fun key art -> admit t key `Simulated art) pending artifacts

(* ---- external trace ingestion --------------------------------------- *)

(* An ingested trace is a grid cell like any other, just with external
   coordinates: its identity is the order-sensitive checksum of its
   event stream (so the same accesses imported as text, CSV or binary
   land on the same cell), its "program" is [trace:<ident>], its
   allocator key is ["external"], and its scale is fixed at 1 (there is
   no workload to scale).  It resolves like any other cell, and its
   capture replays into the same consumers a driver feeds. *)

let external_allocator = "external"
let external_scale = 1.0

let trace_ident ~format ~data =
  let checksum = Memsim.Sink.Checksum.create () in
  let events =
    Memsim.Trace.read format data (Memsim.Sink.Checksum.sink checksum)
  in
  (events, Memsim.Sink.Checksum.value checksum)

let trace_program ~ident = Printf.sprintf "trace:%x" ident

let trace_digest ~ident =
  Artifact.digest ~program:(trace_program ~ident)
    ~allocator:external_allocator ~scale:external_scale ~seed:ident

type capture = {
  format : Memsim.Trace.Source.format;
  data : string;
  buffer : Memsim.Trace_buffer.t;
  counter : Memsim.Sink.Counter.counter;
  events : int;
  ident : int;
}

let capture ~format ~data =
  (* One pass: buffer the packed events for replay, checksum the stream
     for identity, and tally per-source counts for the summary. *)
  let buffer = Memsim.Trace_buffer.create () in
  let checksum = Memsim.Sink.Checksum.create () in
  let counter = Memsim.Sink.Counter.create () in
  let events =
    Memsim.Trace.read format data
      (Memsim.Sink.fanout
         [ Memsim.Trace_buffer.sink buffer;
           Memsim.Sink.Checksum.sink checksum;
           Memsim.Sink.Counter.sink counter ])
  in
  { format;
    data;
    buffer;
    counter;
    events;
    ident = Memsim.Sink.Checksum.value checksum }

let capture_digest c = trace_digest ~ident:c.ident

let simulate_trace c =
  let program = trace_program ~ident:c.ident in
  Telemetry.Span.with_span ~cat:"ingest" program @@ fun () ->
  let (), o = simulate (List.iter (Memsim.Trace_buffer.replay c.buffer)) in
  let by_source = Memsim.Sink.Counter.by_source c.counter in
  { Artifact.meta =
      { Artifact.program;
        allocator = external_allocator;
        scale = external_scale;
        seed = c.ident;
        schema_version = Artifact.schema_version;
        trace_checksum = c.ident };
    provenance =
      { Artifact.source_format = Memsim.Trace.Source.format_to_string c.format;
        source_bytes = String.length c.data;
        source_checksum = Store.Codec.crc32 c.data };
    summary =
      (* There is no simulated machine behind an imported trace, so the
         instruction/heap fields are zero; the reference counts are
         real. *)
      { Artifact.steps_run = 0;
        instructions = 0;
        app_instructions = 0;
        malloc_instructions = 0;
        free_instructions = 0;
        data_refs = c.events;
        app_refs = by_source Memsim.Event.App;
        allocator_refs =
          by_source Memsim.Event.Malloc + by_source Memsim.Event.Free;
        heap_used = 0;
        max_live_bytes = 0 };
    alloc_stats = Allocators.Alloc_stats.create ();
    caches = o.caches;
    hierarchy = o.hierarchy;
    fault_curve = o.fault_curve }

let ingest_capture t c =
  resolve t
    (trace_program ~ident:c.ident, external_allocator)
    ~digest:(fun () -> capture_digest c)
    (fun () -> simulate_trace c)

let ingest t ~format ~data = ingest_capture t (capture ~format ~data)

let get_source t (source : Memsim.Trace.Source.t) =
  match source with
  | Memsim.Trace.Source.Synthetic { program; allocator } ->
      get t ~profile:program ~allocator
  | _ ->
      let format = Option.get (Memsim.Trace.Source.format_of source) in
      let path = Option.get (Memsim.Trace.Source.path_of source) in
      ingest t ~format ~data:(Memsim.Trace.slurp path)
