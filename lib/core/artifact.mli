(** The typed, versioned result of one grid cell.

    An artifact is everything a renderer ever reads about one
    (program, allocator) simulation: the run summary (instruction and
    reference counts, heap growth), allocation statistics, per-config
    cache statistics and the frozen page-fault curve — plus a metadata
    header naming the inputs that produced it (program, allocator,
    scale, seed, schema version) and the trace checksum for drift
    detection.  {!Figures} and {!Tables} are pure functions of
    artifacts; {!Runs} fills them (from simulation or the persistent
    {!Store}); the binary codec here is what the store persists.

    Schema evolution: bump {!schema_version} whenever the encoding or
    the simulated contents change meaning.  The version participates in
    the cell {!digest}, so old cells are simply never looked up again —
    there is no migration, only re-simulation ([loclab store gc] reclaims
    the orphans).  The {!meta} header's encoding is frozen across schema
    versions (it is written first and read by {!decode_meta}), so tools
    can still identify foreign-schema cells. *)

val schema_version : int

type meta = {
  program : string;  (** Profile key, e.g. ["gs-large"]. *)
  allocator : string;  (** Grid key, e.g. ["firstfit"] or ["custom"]. *)
  scale : float;
  seed : int;  (** The profile's workload PRNG seed. *)
  schema_version : int;
  trace_checksum : int;
      (** {!Memsim.Sink.Checksum} over the cell's full reference trace. *)
}

(** Where the cell's reference trace came from (schema 3+).  Synthetic
    workload cells carry [{source_format = "synthetic"; 0; 0}];
    ingested external traces record the capture's format name, byte
    length and CRC-32, so an artifact is auditable back to the exact
    bytes that produced it. *)
type provenance = {
  source_format : string;  (** ["synthetic"], or a trace format name. *)
  source_bytes : int;  (** Byte length of the imported capture. *)
  source_checksum : int;  (** CRC-32 of the imported capture's bytes. *)
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
      (** Every simulated configuration, in simulation order. *)
  fault_curve : Vmsim.Fault_curve.t;
}

val of_run :
  program:string ->
  allocator:string ->
  scale:float ->
  trace_checksum:int ->
  result:Workload.Driver.result ->
  caches:(Cachesim.Config.t * Cachesim.Stats.t) list ->
  fault_curve:Vmsim.Fault_curve.t ->
  t
(** Distil a finished synthetic simulation.  [allocator] is the grid
    key (not the allocator's display name); the seed is taken from the
    result's profile; the provenance is [{"synthetic"; 0; 0}]. *)

(** {1 Content addressing} *)

val digest :
  program:string -> allocator:string -> scale:float -> seed:int -> string
(** Hex digest of the cell coordinates plus {!schema_version} — the
    store filename.  Every input that can change the numbers is either
    part of the digest or part of the code (in which case bumping
    {!schema_version} rolls the key space). *)

val digest_of_meta : meta -> string

(** {1 Codec} *)

val encode : t -> string
(** Compact binary encoding (the payload framed by {!Store.put}). *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; [Error reason] on truncation, trailing bytes,
    or a foreign {!schema_version}.  Never raises. *)

val decode_meta : string -> (meta, string) result
(** Read only the (version-frozen) metadata header, succeeding even for
    payloads whose body layout belongs to another schema version. *)

val write_stats : Binio.Writer.t -> Cachesim.Stats.t -> unit
(** The cache-statistics field sequence, shared with {!Derived}. *)

val read_stats : Binio.Reader.t -> Cachesim.Stats.t

val equal : t -> t -> bool
(** Structural equality of every field, histograms element-wise. *)

(** {1 Derived metrics (what renderers consume)} *)

val allocator_fraction : t -> float
(** Fraction of instructions spent in malloc/free (Figure 1). *)

val cache_stats : t -> name:string -> Cachesim.Stats.t
(** @raise Invalid_argument if the configuration was not simulated; the
    message lists the configurations that were. *)

val miss_rate : t -> cache:string -> float

val paper_hierarchy :
  t -> (Cachesim.Config.t * int * int) * (Cachesim.Config.t * int * int)
(** The paper's two-level hierarchy (Mogul & Borg's 16 K L1 over a
    256 K L2) as [(config, accesses, misses)] per level, read off the
    sweep: L1 is the [16K-dm] member; L2 sees [16K-dm]'s misses and
    misses [256K-dm]'s.  This is exact because both levels are
    direct-mapped with one block size and L2's set count is a multiple
    of L1's, so L1's contents are always a subset of L2's: an L1 hit
    leaves L2 untouched, L2 holds what [256K-dm] holds on the full
    stream, and every [256K-dm] miss is a [16K-dm] miss.
    @raise Invalid_argument if either member was not simulated. *)

val exec_time :
  t -> model:Metrics.Cost_model.t -> cache:string -> Metrics.Exec_time.t
(** The paper's [I + (M x P) D] for this cell under a named cache. *)

(** {1 Export} *)

val to_json : t -> string
(** The full artifact as one compact JSON object (one artifact per line
    = JSON-lines), including the fault-curve histogram. *)

val csv_header : string list

val to_csv_rows : t -> string list list
(** Long-format rows, one per simulated cache configuration, each
    carrying the cell coordinates and run summary alongside that
    configuration's statistics.  Render with {!Metrics.Export.csv_row}. *)
