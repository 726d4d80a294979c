(** The run grid: one fully instrumented simulation per
    (program, allocator) pair, shared by every experiment, plus the
    derived cells of the experiments that simulate off the grid.

    Each run drives the profile against the allocator once, feeding the
    fused trace to three consumers: one {!Cachesim.Multi} over the
    paper's direct-mapped sweep ({!standard_configs}: 16K–256K, 32-byte
    blocks), the page-fault simulator and the trace checksum.  The
    associativity and block-size extensions, which only GS-Large's
    ablations read, are not in the cell: they are [abl-sweep], a
    derived cell of {!Ablations}.  An ingested trace
    feeds the same consumers from a decode of its capture instead of a
    driver run.  The paper's two-level hierarchy (16 K L1 / 256 K L2) is
    not simulated: it is read off the sweep's [16K-dm] and [256K-dm]
    members ({!Artifact.paper_hierarchy}).  The finished cell is
    distilled to a typed {!Artifact.t}; the in-process memo and the
    optional persistent {!Store.t} both hold artifacts, so regenerating
    all tables and figures costs one pass per pair — or zero passes
    from a warm store.  The off-grid experiments ([tabcpu], [abl-flush],
    [abl-lifetime], and [abl-assoc]/[abl-blocksize]'s shared
    [abl-sweep]) store their simulated rows as {!Derived.t} cells
    ({!derive}), so a warm store renders everything without simulating.

    Every value, grid cell, ingested trace or derived cell, resolves
    through one path over its namespace's codec: memo, then the
    validated store read ({!namespace}'s [check]), then computation,
    written through.  The two namespaces share a store root: grid cells
    at its top level, derived cells in its [derived/] sub-store. *)

type t

val create : ?scale:float -> ?jobs:int -> ?store:Store.t -> unit -> t
(** [scale] (default 0.2) is forwarded to every
    {!Workload.Driver.run}.  [jobs] (default 1) bounds the worker
    domains {!prefetch} may use to fill the grid concurrently.
    [store], when given, is consulted before any simulation and written
    through after each one; derived cells use its [derived/] sub-store,
    created on first use.
    @raise Invalid_argument if [scale <= 0] or [jobs < 1]. *)

val scale : t -> float

val store_hits : t -> int
(** Grid cells served from the persistent store so far. *)

val simulated : t -> int
(** Grid cells computed by simulation so far (each was a store miss
    when a store is attached).  Derived cells count separately. *)

val derived_hits : t -> int
(** Derived cells served from the persistent store so far. *)

val derived_computed : t -> int
(** Derived cells computed by simulation so far. *)

type cell_error = Unknown_program of string | Unknown_allocator of string

val check_cell :
  program:string -> allocator:string -> (Workload.Profile.t, cell_error) result
(** The one validation of a grid cell's coordinates, shared by the CLI
    and the server: [program] must be a {!Workload.Programs} key and
    [allocator] a {!Allocators.Registry} key (["custom"] included).
    Returns the program's profile. *)

val cell_error_message : cell_error -> string
(** ["unknown program \"x\""] / ["unknown allocator \"x\""]. *)

val get : t -> profile:string -> allocator:string -> Artifact.t
(** Memoized; consults the store before simulating.  A stored cell that
    is truncated, fails its CRC, or is rejected by its namespace's
    [check] ({!namespaces}) is reported (via [Logs], sources [loclab.store] / [loclab.runs]) and
    transparently re-simulated — never a crash, never wrong numbers.
    [allocator] is a {!Allocators.Registry} key; ["custom"] is trained
    on the profile's own size histogram (the CustoMalloc workflow).
    @raise Not_found for unknown keys. *)

val load : t -> (string * string) list -> (string * string) list
(** [load t cells] pulls every available cell from the persistent store
    into the memo without simulating anything, and returns the
    (deduplicated, first-occurrence-ordered) cells that remain missing
    — the ones {!get} or {!prefetch} would have to simulate.  With no
    store attached, every non-memoized cell is returned. *)

type derivation = {
  id : string;  (** The experiment id the cell is filed under. *)
  scale : float;  (** The effective scale [compute] simulates at. *)
  inputs : string;
      (** Everything [compute] simulates ({!Derived.inputs}). *)
  compute : unit -> Derived.row list;
      (** The driver passes.  It reads no grid cell, so it may run
          beside a grid fill on another domain. *)
}
(** A derived cell as an experiment declares it, keyed by
    [(id, Derived.schema_version, scale, inputs)]. *)

val prefetch : ?derived:derivation list -> t -> (string * string) list -> unit
(** [prefetch ?derived t cells] fills the memo for every (profile,
    allocator) cell not already present, and reads every derived cell
    of [derived] (default none) the store holds: first from the
    persistent store (sequential, cheap), then by simulating the cold
    grid cells on up to [jobs] ({!create}) worker domains.  When they
    run on one (a single cold cell, or [jobs = 1]), the cold derived
    cells are computed beside them: {!Exec.Relay.both} runs the grid
    on an idle core while the caller computes the derived cells and
    then takes the grid cells still left, or, with no idle core, runs
    the grid first and the derived cells after.
    Otherwise a cold derived cell is left to the first {!derive} that
    asks for it.  Every value is independent (each owns its heap, RNG
    and sinks), and every result is merged and written through on the
    calling domain in submission order, grid cells first, so the memo
    and the store — and therefore every rendering — are bit-identical
    to a sequential fill, warm or cold.  If any computation raises
    (e.g. {!get}'s [Not_found] for an unknown key), nothing computed
    in the call is merged and the first failure (grid before derived,
    then by position) is re-raised. *)

val simulate_cell :
  ?tap:
    (caches:(unit -> (Cachesim.Config.t * Cachesim.Stats.t) list) ->
    footprint_bytes:(unit -> int) ->
    alloc:Allocators.Allocator.t ->
    Memsim.Sink.t list) ->
  scale:float -> profile:string -> allocator:string -> unit -> Artifact.t
(** One driver pass of a grid cell at [scale] into the consumer set
    every cell is simulated by, never through the memo or the store.
    [tap] is called once, before the run: [caches ()] reads the sweep's
    statistics so far, [footprint_bytes ()] the page simulator's, and
    [alloc] is the cell's allocator.  The sinks it returns go last in
    the fanout, so at each delivery they may read state that has
    absorbed every event so far.  A tapped pass keeps the sweep on the
    calling domain ({!Exec.Relay.with_path} [Inline]).
    @raise Not_found for unknown keys. *)

(** {1 External trace ingestion}

    An ingested trace becomes a grid cell with external coordinates:
    program [trace:<ident>], allocator ["external"], scale 1, where
    [ident] is the order-sensitive {!Memsim.Sink.Checksum} of the event
    stream.  Identity is therefore the {e events}, not the encoding —
    the same accesses imported as text, CSV or binary land on the same
    cell and warm-serve each other. *)

type capture
(** A checked external trace: its bytes, format, event count and
    stream identity.  It holds no decoded event. *)

val capture : format:Memsim.Trace.Source.format -> data:string -> capture
(** The identity pass: decode [data] once into the stream checksum,
    keeping nothing of the stream, so what it allocates does not grow
    with the capture.  A cold {!ingest_capture} decodes [data] a second
    time, and counts the events by source then.  @raise Failure on
    malformed trace data. *)

val capture_digest : capture -> string
(** Store digest of the capture's cell. *)

val ingest_capture : t -> capture -> Artifact.t
(** Resolve the capture's cell like {!get}: memo, validated store read,
    or a second decode of its bytes into the same consumers a
    synthetic run feeds, written through.  The artifact's provenance
    records the capture's format, byte length and CRC-32. *)

val ingest : t -> format:Memsim.Trace.Source.format -> data:string -> Artifact.t
(** [ingest_capture t (capture ~format ~data)].
    @raise Failure on malformed trace data. *)

val trace_ident : format:Memsim.Trace.Source.format -> data:string -> int * int
(** [(events, checksum)] of the capture's event stream: {!capture}'s
    identity pass.  @raise Failure on malformed trace data. *)

val trace_digest : ident:int -> string
(** Store digest of the external cell identified by [ident]. *)

val external_allocator : string
(** The allocator key external cells carry (["external"]). *)

(** {1 Derived cells} *)

val derive : t -> derivation -> Derived.row list
(** [derive t d] resolves [d]'s derived cell like {!get}: memo,
    validated read of the store's [derived/] namespace, or
    [d.compute ()] written through. *)

(** {1 The validated store read} *)

type rejection =
  | Stale of string
      (** A readable header of another schema version: unreachable by
          current digests, and reclaimed by [store gc]. *)
  | Invalid of string  (** Undecodable, or misfiled under another key. *)

type namespace = {
  name : string;  (** ["grid"] or ["derived"]. *)
  locate : Store.t -> Store.t;
      (** The namespace's store under a root opened with {!Store.open_}. *)
  check : digest:string -> string -> (unit, rejection) result;
      (** The one rule every reader and [loclab store gc]/[verify]
          apply: the payload decodes under the current schema and its
          key digests to [digest], the digest it is filed under. *)
  describe : string -> (string, string) result;
      (** One line from the payload's version-frozen header, under any
          schema. *)
}

val namespaces : namespace list
(** Grid cells, then derived cells. *)

val read : Store.t -> digest:string -> (string * Artifact.t) option
(** The grid-cell payload filed under [digest] and its artifact, if it
    passes the cell namespace's [check].  Every failure (absent,
    truncated, CRC mismatch, undecodable, misfiled) is [None]; a
    rejected payload is logged. *)

val standard_configs : Cachesim.Config.t list
(** The cache sweep simulated per run:
    {!Cachesim.Config.paper_direct_mapped}, in its order. *)

val build_allocator :
  profile_key:string -> allocator:string -> Allocators.Heap.t ->
  Allocators.Allocator.t
(** {!Workload.Driver.build_allocator} for a profile key: what a grid
    cell's driver pass builds. *)
