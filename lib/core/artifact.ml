(* Schema 5: a cell no longer stores the paper's two-level hierarchy;
   both levels are read off the sweep's 16K-dm and 256K-dm members
   ({!paper_hierarchy}), so the body lost its hierarchy list.
   Schema 6: the sweep is the paper's five direct-mapped caches; the
   16K 2/4/8-way and 64K 16/64/128-byte-block members moved to the
   [abl-sweep] derived cell. *)
let schema_version = 6

type meta = {
  program : string;
  allocator : string;
  scale : float;
  seed : int;
  schema_version : int;
  trace_checksum : int;
}

type provenance = {
  source_format : string;
  source_bytes : int;
  source_checksum : int;
}

type summary = {
  steps_run : int;
  instructions : int;
  app_instructions : int;
  malloc_instructions : int;
  free_instructions : int;
  data_refs : int;
  app_refs : int;
  allocator_refs : int;
  heap_used : int;
  max_live_bytes : int;
}

type t = {
  meta : meta;
  provenance : provenance;
  summary : summary;
  alloc_stats : Allocators.Alloc_stats.t;
  caches : (Cachesim.Config.t * Cachesim.Stats.t) list;
  fault_curve : Vmsim.Fault_curve.t;
}

let of_run ~program ~allocator ~scale ~trace_checksum
    ~(result : Workload.Driver.result) ~caches ~fault_curve =
  { meta =
      { program;
        allocator;
        scale;
        seed = result.Workload.Driver.profile.Workload.Profile.seed;
        schema_version;
        trace_checksum };
    provenance =
      { source_format = "synthetic"; source_bytes = 0; source_checksum = 0 };
    summary =
      { steps_run = result.steps_run;
        instructions = result.instructions;
        app_instructions = result.app_instructions;
        malloc_instructions = result.malloc_instructions;
        free_instructions = result.free_instructions;
        data_refs = result.data_refs;
        app_refs = result.app_refs;
        allocator_refs = result.allocator_refs;
        heap_used = result.heap_used;
        max_live_bytes = result.max_live_bytes };
    alloc_stats = result.alloc_stats;
    caches;
    fault_curve }

(* ---- content addressing -------------------------------------------- *)

let digest ~program ~allocator ~scale ~seed =
  (* The key "loclab-cell|<program>|<allocator>|<%h scale>|<seed>|<schema>";
     %h renders the float's exact bits, so digests never depend on a
     decimal rounding choice. *)
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ "loclab-cell"; program; allocator; Metrics.Numfmt.hex scale;
            string_of_int seed; string_of_int schema_version ]))

let digest_of_meta m =
  digest ~program:m.program ~allocator:m.allocator ~scale:m.scale ~seed:m.seed

(* ---- codec --------------------------------------------------------- *)

module W = Binio.Writer
module R = Binio.Reader

(* The meta header layout is FROZEN: decode_meta must keep working on
   payloads from every past and future schema version. *)
let write_meta w (m : meta) =
  W.string w m.program;
  W.string w m.allocator;
  W.float w m.scale;
  W.int w m.seed;
  W.int w m.schema_version;
  W.int w m.trace_checksum

let read_meta r =
  let program = R.string r in
  let allocator = R.string r in
  let scale = R.float r in
  let seed = R.int r in
  let schema_version = R.int r in
  let trace_checksum = R.int r in
  { program; allocator; scale; seed; schema_version; trace_checksum }

(* Provenance joined the body in schema 3 (right after the frozen meta
   header), recording where the cell's reference trace came from:
   "synthetic" for workload models, a trace format name for ingested
   external captures (with the capture's byte length and CRC-32). *)
let write_provenance w (p : provenance) =
  W.string w p.source_format;
  W.int w p.source_bytes;
  W.int w p.source_checksum

let read_provenance r =
  let source_format = R.string r in
  let source_bytes = R.int r in
  let source_checksum = R.int r in
  { source_format; source_bytes; source_checksum }

let write_summary w (s : summary) =
  W.int w s.steps_run;
  W.int w s.instructions;
  W.int w s.app_instructions;
  W.int w s.malloc_instructions;
  W.int w s.free_instructions;
  W.int w s.data_refs;
  W.int w s.app_refs;
  W.int w s.allocator_refs;
  W.int w s.heap_used;
  W.int w s.max_live_bytes

let read_summary r =
  let steps_run = R.int r in
  let instructions = R.int r in
  let app_instructions = R.int r in
  let malloc_instructions = R.int r in
  let free_instructions = R.int r in
  let data_refs = R.int r in
  let app_refs = R.int r in
  let allocator_refs = R.int r in
  let heap_used = R.int r in
  let max_live_bytes = R.int r in
  { steps_run;
    instructions;
    app_instructions;
    malloc_instructions;
    free_instructions;
    data_refs;
    app_refs;
    allocator_refs;
    heap_used;
    max_live_bytes }

let write_alloc_stats w (s : Allocators.Alloc_stats.t) =
  W.int w s.malloc_calls;
  W.int w s.free_calls;
  W.int w s.realloc_calls;
  W.int w s.realloc_moves;
  W.int w s.bytes_requested;
  W.int w s.bytes_granted;
  W.int w s.live_bytes;
  W.int w s.max_live_bytes;
  W.int w s.live_objects;
  W.int w s.max_live_objects

let read_alloc_stats r : Allocators.Alloc_stats.t =
  let malloc_calls = R.int r in
  let free_calls = R.int r in
  let realloc_calls = R.int r in
  let realloc_moves = R.int r in
  let bytes_requested = R.int r in
  let bytes_granted = R.int r in
  let live_bytes = R.int r in
  let max_live_bytes = R.int r in
  let live_objects = R.int r in
  let max_live_objects = R.int r in
  { malloc_calls;
    free_calls;
    realloc_calls;
    realloc_moves;
    bytes_requested;
    bytes_granted;
    live_bytes;
    max_live_bytes;
    live_objects;
    max_live_objects }

let write_stats w (s : Cachesim.Stats.t) =
  W.int w s.accesses;
  W.int w s.misses;
  W.int w s.read_accesses;
  W.int w s.read_misses;
  W.int w s.write_accesses;
  W.int w s.write_misses;
  W.int w s.cold_misses;
  W.int w s.writebacks;
  W.int w s.app_accesses;
  W.int w s.app_misses;
  W.int w s.malloc_accesses;
  W.int w s.malloc_misses;
  W.int w s.free_accesses;
  W.int w s.free_misses

let read_stats r : Cachesim.Stats.t =
  let accesses = R.int r in
  let misses = R.int r in
  let read_accesses = R.int r in
  let read_misses = R.int r in
  let write_accesses = R.int r in
  let write_misses = R.int r in
  let cold_misses = R.int r in
  let writebacks = R.int r in
  let app_accesses = R.int r in
  let app_misses = R.int r in
  let malloc_accesses = R.int r in
  let malloc_misses = R.int r in
  let free_accesses = R.int r in
  let free_misses = R.int r in
  { accesses;
    misses;
    read_accesses;
    read_misses;
    write_accesses;
    write_misses;
    cold_misses;
    writebacks;
    app_accesses;
    app_misses;
    malloc_accesses;
    malloc_misses;
    free_accesses;
    free_misses }

let write_config w (c : Cachesim.Config.t) =
  W.string w c.name;
  W.int w c.size_bytes;
  W.int w c.block_bytes;
  W.int w c.associativity;
  W.string w (Cachesim.Policy.to_string c.policy)

let read_config r : Cachesim.Config.t =
  let name = R.string r in
  let size_bytes = R.int r in
  let block_bytes = R.int r in
  let associativity = R.int r in
  let policy =
    match Cachesim.Policy.of_string (R.string r) with
    | Ok p -> p
    | Error e -> raise (Binio.Error e)
  in
  Cachesim.Config.make ~name ~block_bytes ~associativity ~policy size_bytes

let write_curve w (c : Vmsim.Fault_curve.t) =
  W.int w c.page_bytes;
  W.int w c.references;
  W.int w c.cold;
  W.int_array w c.hist

let read_curve r : Vmsim.Fault_curve.t =
  let page_bytes = R.int r in
  let references = R.int r in
  let cold = R.int r in
  let hist = R.int_array r in
  { page_bytes; references; cold; hist }

let encode t =
  let w = W.create () in
  write_meta w t.meta;
  write_provenance w t.provenance;
  write_summary w t.summary;
  write_alloc_stats w t.alloc_stats;
  W.list w
    (fun (config, stats) ->
      write_config w config;
      write_stats w stats)
    t.caches;
  write_curve w t.fault_curve;
  W.contents w

let decode payload =
  match
    let r = R.of_string payload in
    let meta = read_meta r in
    if meta.schema_version <> schema_version then
      Error
        (Printf.sprintf "schema version %d (this build reads %d)"
           meta.schema_version schema_version)
    else begin
      let provenance = read_provenance r in
      let summary = read_summary r in
      let alloc_stats = read_alloc_stats r in
      let caches =
        R.list r (fun r ->
            let config = read_config r in
            let stats = read_stats r in
            (config, stats))
      in
      let fault_curve = read_curve r in
      if not (R.at_end r) then Error "trailing bytes after artifact"
      else
        Ok
          { meta; provenance; summary; alloc_stats; caches; fault_curve }
    end
  with
  | result -> result
  | exception Binio.Error e -> Error e
  | exception Invalid_argument e ->
      (* Config.make validation: a decoded size/associativity that no
         longer forms a legal cache is corruption, not a crash. *)
      Error e

let decode_meta payload =
  match read_meta (R.of_string payload) with
  | meta -> Ok meta
  | exception Binio.Error e -> Error e

let equal a b =
  (* Fields are ints, floats (finite by construction), strings, arrays
     and lists thereof, so structural equality is exact; scale compares
     by bits via its float value (never NaN: Runs rejects those). *)
  a = b

(* ---- derived metrics ----------------------------------------------- *)

let allocator_fraction t =
  if t.summary.instructions = 0 then 0.
  else
    float_of_int
      (t.summary.malloc_instructions + t.summary.free_instructions)
    /. float_of_int t.summary.instructions

let cache t ~name =
  match
    List.find_opt (fun (c, _) -> c.Cachesim.Config.name = name) t.caches
  with
  | Some cs -> cs
  | None ->
      invalid_arg
        (Printf.sprintf "Artifact.cache_stats: unknown cache %S (known: %s)"
           name
           (String.concat ", "
              (List.map (fun (c, _) -> c.Cachesim.Config.name) t.caches)))

let cache_stats t ~name = snd (cache t ~name)

let miss_rate t ~cache = Cachesim.Stats.miss_rate (cache_stats t ~name:cache)

let paper_hierarchy t =
  let c1, s1 = cache t ~name:"16K-dm" and c2, s2 = cache t ~name:"256K-dm" in
  ( (c1, s1.Cachesim.Stats.accesses, s1.Cachesim.Stats.misses),
    (c2, s1.Cachesim.Stats.misses, s2.Cachesim.Stats.misses) )

let exec_time t ~model ~cache =
  let s = cache_stats t ~name:cache in
  Metrics.Exec_time.make ~model ~instructions:t.summary.instructions
    ~data_refs:t.summary.data_refs ~misses:s.Cachesim.Stats.misses

(* ---- export -------------------------------------------------------- *)

let stats_json (s : Cachesim.Stats.t) =
  Metrics.Export.Obj
    [ ("accesses", Int s.accesses);
      ("misses", Int s.misses);
      ("read_accesses", Int s.read_accesses);
      ("read_misses", Int s.read_misses);
      ("write_accesses", Int s.write_accesses);
      ("write_misses", Int s.write_misses);
      ("cold_misses", Int s.cold_misses);
      ("writebacks", Int s.writebacks);
      ("app_accesses", Int s.app_accesses);
      ("app_misses", Int s.app_misses);
      ("malloc_accesses", Int s.malloc_accesses);
      ("malloc_misses", Int s.malloc_misses);
      ("free_accesses", Int s.free_accesses);
      ("free_misses", Int s.free_misses) ]

let to_json t =
  let open Metrics.Export in
  to_string
    (Obj
       [ ( "meta",
           Obj
             [ ("program", String t.meta.program);
               ("allocator", String t.meta.allocator);
               ("scale", Float t.meta.scale);
               ("seed", Int t.meta.seed);
               ("schema_version", Int t.meta.schema_version);
               ("trace_checksum", Int t.meta.trace_checksum);
               ("digest", String (digest_of_meta t.meta)) ] );
         ( "provenance",
           Obj
             [ ("source_format", String t.provenance.source_format);
               ("source_bytes", Int t.provenance.source_bytes);
               ("source_checksum", Int t.provenance.source_checksum) ] );
         ( "summary",
           Obj
             [ ("steps_run", Int t.summary.steps_run);
               ("instructions", Int t.summary.instructions);
               ("app_instructions", Int t.summary.app_instructions);
               ("malloc_instructions", Int t.summary.malloc_instructions);
               ("free_instructions", Int t.summary.free_instructions);
               ("data_refs", Int t.summary.data_refs);
               ("app_refs", Int t.summary.app_refs);
               ("allocator_refs", Int t.summary.allocator_refs);
               ("heap_used", Int t.summary.heap_used);
               ("max_live_bytes", Int t.summary.max_live_bytes) ] );
         ( "alloc_stats",
           Obj
             [ ("malloc_calls", Int t.alloc_stats.malloc_calls);
               ("free_calls", Int t.alloc_stats.free_calls);
               ("realloc_calls", Int t.alloc_stats.realloc_calls);
               ("realloc_moves", Int t.alloc_stats.realloc_moves);
               ("bytes_requested", Int t.alloc_stats.bytes_requested);
               ("bytes_granted", Int t.alloc_stats.bytes_granted);
               ("max_live_bytes", Int t.alloc_stats.max_live_bytes);
               ("max_live_objects", Int t.alloc_stats.max_live_objects) ] );
         ( "caches",
           List
             (List.map
                (fun ((c : Cachesim.Config.t), s) ->
                  Obj
                    [ ("name", String c.name);
                      ("size_bytes", Int c.size_bytes);
                      ("block_bytes", Int c.block_bytes);
                      ("associativity", Int c.associativity);
                      ( "policy",
                        String (Cachesim.Policy.to_string c.policy) );
                      ("stats", stats_json s) ])
                t.caches) );
         ( "fault_curve",
           Obj
             [ ("page_bytes", Int t.fault_curve.page_bytes);
               ("references", Int t.fault_curve.references);
               ("cold", Int t.fault_curve.cold);
               ( "hist",
                 List
                   (Array.to_list
                      (Array.map (fun n -> Int n) t.fault_curve.hist)) ) ] ) ])

let csv_header =
  [ "program"; "allocator"; "scale"; "seed"; "trace_checksum"; "cache";
    "cache_bytes"; "block_bytes"; "associativity"; "policy"; "accesses";
    "misses";
    "miss_rate"; "instructions"; "malloc_instructions"; "free_instructions";
    "data_refs"; "heap_used"; "max_live_bytes"; "malloc_calls"; "free_calls";
    "footprint_bytes" ]

let to_csv_rows t =
  List.map
    (fun ((c : Cachesim.Config.t), (s : Cachesim.Stats.t)) ->
      [ t.meta.program;
        t.meta.allocator;
        Printf.sprintf "%g" t.meta.scale;
        string_of_int t.meta.seed;
        string_of_int t.meta.trace_checksum;
        c.name;
        string_of_int c.size_bytes;
        string_of_int c.block_bytes;
        string_of_int c.associativity;
        Cachesim.Policy.to_string c.policy;
        string_of_int s.accesses;
        string_of_int s.misses;
        Printf.sprintf "%.6f" (Cachesim.Stats.miss_rate s);
        string_of_int t.summary.instructions;
        string_of_int t.summary.malloc_instructions;
        string_of_int t.summary.free_instructions;
        string_of_int t.summary.data_refs;
        string_of_int t.summary.heap_used;
        string_of_int t.summary.max_live_bytes;
        string_of_int t.alloc_stats.malloc_calls;
        string_of_int t.alloc_stats.free_calls;
        string_of_int (Vmsim.Fault_curve.footprint_bytes t.fault_curve) ])
    t.caches
