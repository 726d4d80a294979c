let log_src = Logs.Src.create "loclab.runs" ~doc:"loclab run grid"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ---- content-addressed namespaces ---------------------------------- *)

(* What a namespace's payloads are: how a value is encoded, decoded and
   addressed, and how its version-frozen header reads under any schema
   (its schema version and a one-line description). *)
type 'v codec = {
  name : string;
  schema_version : int;
  encode : 'v -> string;
  decode : string -> ('v, string) result;
  digest_of : 'v -> string;
  header : string -> (int * string, string) result;
}

type rejection = Stale of string | Invalid of string

(* The one rule for accepting a stored payload, shared by every reader
   and by [store gc]: it must decode under the current schema, and its
   key must digest to the digest it is filed under. *)
let validate codec ~digest payload =
  match codec.decode payload with
  | Ok v ->
      let filed = codec.digest_of v in
      if filed = digest then Ok v
      else
        Error
          (Invalid (Printf.sprintf "metadata digests to %s (misfiled %s)" filed
             codec.name))
  | Error reason -> (
      match codec.header payload with
      | Ok (schema, _) when schema <> codec.schema_version ->
          Error
            (Stale
               (Printf.sprintf "schema %d (this build reads %d)" schema
                  codec.schema_version))
      | _ -> Error (Invalid ("undecodable " ^ codec.name ^ ": " ^ reason)))

let rejection_reason (Stale r | Invalid r) = r

(* Any failure — absent, truncated, CRC mismatch, or rejected by
   [validate] — degrades to [None], i.e. to recomputation; corruption
   is reported, never fatal. *)
let read_with codec store ~digest =
  match Store.find store ~digest with
  | Store.Miss | Store.Corrupt _ -> None (* Corrupt logged by Store *)
  | Store.Hit payload -> (
      match validate codec ~digest payload with
      | Ok v -> Some (payload, v)
      | Error r ->
          Log.warn (fun m ->
              m "%s cell %s: %s; recomputing" codec.name digest
                (rejection_reason r));
          None)

(* One namespace of one grid: its memo, its store, and how many values
   came from each source, counted by the namespace's metric family. *)
type ('k, 'v) space = {
  codec : 'v codec;
  store : Store.t option Lazy.t;
  memo : ('k, 'v) Hashtbl.t;
  memo_c : Telemetry.Metrics.Counter.h;
  store_c : Telemetry.Metrics.Counter.h;
  computed_c : Telemetry.Metrics.Counter.h;
  mutable hits : int;
  mutable computed : int;
}

let counters ~name ~help ~computed =
  let f =
    Telemetry.Metrics.Counter.family ~name ~help ~labels:[ "source" ] ()
  in
  let c l = Telemetry.Metrics.Counter.labels f [ l ] in
  (c "memo", c "store", c computed)

let cells_c =
  counters ~name:"loclab_cells_total"
    ~help:"Grid cells resolved, by how they were satisfied"
    ~computed:"simulated"

let derived_c =
  counters ~name:"loclab_derived_total"
    ~help:"Derived cells (off-grid experiment rows) resolved, by how they \
           were satisfied"
    ~computed:"computed"

let space codec (memo_c, store_c, computed_c) store =
  { codec;
    store;
    memo = Hashtbl.create 64;
    memo_c;
    store_c;
    computed_c;
    hits = 0;
    computed = 0 }

let stored sp ~digest =
  Option.bind (Lazy.force sp.store) (fun store ->
      Option.map snd (read_with sp.codec store ~digest))

(* Every resolved value enters the memo here, counted by where it came
   from; a computed one is written through first. *)
let admit sp key source v =
  (match source with
  | `Store ->
      sp.hits <- sp.hits + 1;
      Telemetry.Metrics.Counter.inc sp.store_c
  | `Computed ->
      sp.computed <- sp.computed + 1;
      Telemetry.Metrics.Counter.inc sp.computed_c;
      Option.iter
        (fun store ->
          Store.put store ~digest:(sp.codec.digest_of v) (sp.codec.encode v))
        (Lazy.force sp.store));
  Log.debug (fun m ->
      m "%s %s: %s" sp.codec.name (sp.codec.digest_of v)
        (match source with `Store -> "store hit" | `Computed -> "computed"));
  Hashtbl.replace sp.memo key v

(* memo → validated store read → [compute], written through.  [digest]
   is forced only on a memo miss. *)
let resolve sp key ~digest compute =
  match Hashtbl.find_opt sp.memo key with
  | Some v ->
      Telemetry.Metrics.Counter.inc sp.memo_c;
      v
  | None ->
      let v, source =
        match stored sp ~digest:(digest ()) with
        | Some v -> (v, `Store)
        | None -> (compute (), `Computed)
      in
      admit sp key source v;
      v

let cell_codec =
  { name = "grid";
    schema_version = Artifact.schema_version;
    encode = Artifact.encode;
    decode = Artifact.decode;
    digest_of = (fun (a : Artifact.t) -> Artifact.digest_of_meta a.meta);
    header =
      (fun payload ->
        Result.map
          (fun (m : Artifact.meta) ->
            ( m.schema_version,
              Printf.sprintf "%-10s %-14s scale %-5g seed %-6d schema %d"
                m.program m.allocator m.scale m.seed m.schema_version ))
          (Artifact.decode_meta payload)) }

let derived_codec =
  { name = "derived";
    schema_version = Derived.schema_version;
    encode = Derived.encode;
    decode = Derived.decode;
    digest_of = (fun (d : Derived.t) -> Derived.digest_of_meta d.meta);
    header =
      (fun payload ->
        Result.map
          (fun (m : Derived.meta) ->
            ( m.schema_version,
              Printf.sprintf "%-25s scale %-5g schema %d" m.id m.scale
                m.schema_version ))
          (Derived.decode_meta payload)) }

(* Derived cells live in their own sub-store of the root, so the grid's
   namespace ([Store.ls], [store gc]'s artifact rule) never sees them. *)
let derived_store root =
  Store.open_ (Filename.concat (Store.root root) "derived")

type namespace = {
  name : string;
  locate : Store.t -> Store.t;
  check : digest:string -> string -> (unit, rejection) result;
  describe : string -> (string, string) result;
}

let namespace (codec : _ codec) ~locate =
  { name = codec.name;
    locate;
    check =
      (fun ~digest payload ->
        Result.map ignore (validate codec ~digest payload));
    describe = (fun payload -> Result.map snd (codec.header payload)) }

let namespaces =
  [ namespace cell_codec ~locate:Fun.id;
    namespace derived_codec ~locate:derived_store ]

type t = {
  scale : float;
  jobs : int;
  cells : (string * string, Artifact.t) space;
  derived : (string, Derived.t) space;
}

(* The paper's TYCHO sweep and nothing else: every grid table reads
   these five.  The associativity and block-size extensions are
   {!Ablations}' own derived cell. *)
let standard_configs = Cachesim.Config.paper_direct_mapped

let create ?(scale = 0.2) ?(jobs = 1) ?store () =
  (* Not an assert: -noassert builds must still reject a zero-step
     grid instead of looping or dividing by zero deep in a driver. *)
  if not (scale > 0.) then invalid_arg "Runs.create: scale must be > 0";
  if jobs < 1 then invalid_arg "Runs.create: jobs must be >= 1";
  { scale;
    jobs;
    cells = space cell_codec cells_c (Lazy.from_val store);
    derived =
      space derived_codec derived_c (lazy (Option.map derived_store store)) }

let scale t = t.scale
let store_hits t = t.cells.hits
let simulated t = t.cells.computed
let derived_hits t = t.derived.hits
let derived_computed t = t.derived.computed

type cell_error = Unknown_program of string | Unknown_allocator of string

let check_cell ~program ~allocator =
  match Workload.Programs.find program with
  | exception Not_found -> Error (Unknown_program program)
  | profile ->
      if List.mem allocator (Allocators.Registry.keys ()) then Ok profile
      else Error (Unknown_allocator allocator)

let cell_error_message = function
  | Unknown_program p -> Printf.sprintf "unknown program %S" p
  | Unknown_allocator a -> Printf.sprintf "unknown allocator %S" a

let build_allocator ~profile_key ~allocator heap =
  Workload.Driver.build_allocator
    ~profile:(Workload.Programs.find profile_key) ~allocator heap

(* ---- the consumer set ----------------------------------------------- *)

(* What the consumers saw of one cell's event stream. *)
type observed = {
  caches : (Cachesim.Config.t * Cachesim.Stats.t) list;
  fault_curve : Vmsim.Fault_curve.t;
  trace_checksum : int;
}

(* Every cell, synthetic or external, feeds the same consumers: the
   standard sweep, the page simulator (the paper's two-level hierarchy
   is read off the sweep, {!Artifact.paper_hierarchy}) and the stream
   checksum.  [source] delivers the whole stream to the sink it is
   given — a driver run, or a decode of a capture — and its result
   comes back beside what the consumers observed.  The sweep is the
   consumer that goes to an idle core ({!Exec.Relay}); the page
   simulator and the checksum stay on the caller beside the source.
   A [tap] adds consumers, last in the fanout, that may read the sweep
   and the page simulator at each batch edge: a tapped pass keeps the
   sweep inline, so both stay on the domain that reads them. *)
let simulate ?tap source =
  let multi = Cachesim.Multi.create standard_configs in
  let pages = Vmsim.Page_sim.create () in
  let checksum = Memsim.Sink.Checksum.create () in
  let tapped =
    match tap with
    | None -> []
    | Some tap ->
        tap
          ~caches:(fun () -> Cachesim.Multi.results multi)
          ~footprint_bytes:(fun () -> Vmsim.Page_sim.footprint_bytes pages)
  in
  let feed () =
    Exec.Relay.with_sink (Cachesim.Multi.sink multi) @@ fun caches ->
    source
      (Memsim.Sink.fanout
         ([ caches;
            Vmsim.Page_sim.sink pages;
            Memsim.Sink.Checksum.sink checksum ]
         @ tapped))
  in
  let fed =
    if Option.is_none tap then feed () else Exec.Relay.with_path Inline feed
  in
  ( fed,
    { caches = Cachesim.Multi.results multi;
      fault_curve = Vmsim.Page_sim.curve pages;
      trace_checksum = Memsim.Sink.Checksum.value checksum } )

let simulate_cell ?tap ~scale ~profile ~allocator () =
  Telemetry.Span.with_span ~cat:"cell" (profile ^ "/" ^ allocator) @@ fun () ->
  let prof = Workload.Programs.find profile in
  let heap = Allocators.Heap.create () in
  let alloc = Workload.Driver.build_allocator ~profile:prof ~allocator heap in
  let tap =
    Option.map
      (fun tap ~caches ~footprint_bytes -> tap ~caches ~footprint_bytes ~alloc)
      tap
  in
  let result, o =
    simulate ?tap (fun sink ->
        Workload.Driver.run_with ~sink ~scale ~profile:prof ~heap ~alloc ())
  in
  Artifact.of_run ~program:profile ~allocator ~scale
    ~trace_checksum:o.trace_checksum ~result ~caches:o.caches
    ~fault_curve:o.fault_curve

let run t ~profile ~allocator =
  simulate_cell ~scale:t.scale ~profile ~allocator ()

(* ---- grid cells ------------------------------------------------------ *)

let read store ~digest = read_with cell_codec store ~digest

let cell_digest t ~profile ~allocator =
  let prof = Workload.Programs.find profile in
  Artifact.digest ~program:profile ~allocator ~scale:t.scale
    ~seed:prof.Workload.Profile.seed

let get t ~profile ~allocator =
  resolve t.cells (profile, allocator)
    ~digest:(fun () -> cell_digest t ~profile ~allocator)
    (fun () -> run t ~profile ~allocator)

let dedupe_missing t cells =
  (* Keep first-occurrence order and drop cells the memo already holds:
     the pending list is both the work list and the merge order. *)
  let seen = Hashtbl.create 16 in
  List.rev
    (List.fold_left
       (fun acc key ->
         if Hashtbl.mem t.cells.memo key || Hashtbl.mem seen key then acc
         else begin
           Hashtbl.replace seen key ();
           key :: acc
         end)
       [] cells)

let load t cells =
  List.filter
    (fun ((profile, allocator) as key) ->
      match stored t.cells ~digest:(cell_digest t ~profile ~allocator) with
      | Some art ->
          admit t.cells key `Store art;
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
      List.iter2 (fun key art -> admit t.cells key `Computed art) pending
        artifacts

(* ---- external trace ingestion --------------------------------------- *)

(* An ingested trace is a grid cell like any other, just with external
   coordinates and another event source: its identity is the
   order-sensitive checksum of its event stream (so the same accesses
   imported as text, CSV or binary land on the same cell), its
   "program" is [trace:<ident>], its allocator key is ["external"], and
   its scale is fixed at 1 (there is no workload to scale).  It
   resolves like any other cell, and a cold one decodes its capture
   into the same consumers a driver feeds. *)

let external_allocator = "external"
let external_scale = 1.0

let trace_program ~ident = Printf.sprintf "trace:%x" ident

let trace_digest ~ident =
  Artifact.digest ~program:(trace_program ~ident)
    ~allocator:external_allocator ~scale:external_scale ~seed:ident

type capture = {
  format : Memsim.Trace.Source.format;
  data : string;
  events : int;
  ident : int;
}

(* The identity pass: one decode into the checksum.  Nothing of the
   stream is kept, so a warm ingest holds only the capture's bytes. *)
let capture ~format ~data =
  let checksum = Memsim.Sink.Checksum.create () in
  let events =
    Memsim.Trace.read format data (Memsim.Sink.Checksum.sink checksum)
  in
  { format; data; events; ident = Memsim.Sink.Checksum.value checksum }

let trace_ident ~format ~data =
  let c = capture ~format ~data in
  (c.events, c.ident)

let capture_digest c = trace_digest ~ident:c.ident

let simulate_trace c =
  let program = trace_program ~ident:c.ident in
  Telemetry.Span.with_span ~cat:"ingest" program @@ fun () ->
  (* The capture is decoded a second time, straight into the
     consumers and the per-source counts the summary reports. *)
  let counter = Memsim.Sink.Counter.create () in
  let _events, o =
    simulate (fun sink ->
        Memsim.Trace.read c.format c.data
          (Memsim.Sink.fanout [ sink; Memsim.Sink.Counter.sink counter ]))
  in
  let by_source = Memsim.Sink.Counter.by_source counter in
  { Artifact.meta =
      { Artifact.program;
        allocator = external_allocator;
        scale = external_scale;
        seed = c.ident;
        schema_version = Artifact.schema_version;
        trace_checksum = o.trace_checksum };
    provenance =
      { Artifact.source_format = Memsim.Trace.Source.format_to_string c.format;
        source_bytes = String.length c.data;
        source_checksum = Binio.crc32 c.data };
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
    fault_curve = o.fault_curve }

let ingest_capture t c =
  resolve t.cells
    (trace_program ~ident:c.ident, external_allocator)
    ~digest:(fun () -> capture_digest c)
    (fun () -> simulate_trace c)

let ingest t ~format ~data = ingest_capture t (capture ~format ~data)

(* ---- derived cells -------------------------------------------------- *)

let derive t ~id ~scale ~inputs compute =
  let meta =
    { Derived.id; scale; schema_version = Derived.schema_version; inputs }
  in
  let digest = Derived.digest_of_meta meta in
  let d =
    resolve t.derived digest
      ~digest:(fun () -> digest)
      (fun () ->
        Telemetry.Span.with_span ~cat:"derived" id @@ fun () ->
        { Derived.meta; rows = compute () })
  in
  d.Derived.rows
