(** Derived cells: the integer rows behind the off-grid experiments.

    [tabcpu], [abl-flush], [abl-lifetime] and [abl-sweep] (the
    associativity and block-size extensions of [abl-assoc] and
    [abl-blocksize]) need driver passes the grid does not run; a row
    the grid holds is read off its cell ({!of_artifact}).  A derived
    cell stores what those passes observed
    — one {!row} per (program, variant) driver pass, never rendered
    text — so the renderers in {!Tables} and {!Ablations} are pure
    functions of it, and a warm store answers them without simulating.
    Render-time parameters (the [--cpu] preset detailed, CPU latencies,
    the miss penalty) are not part of a derived cell and never force a
    recompute.

    A cell is addressed by the digest of its {!meta}: the experiment id,
    {!schema_version}, the effective scale and a canonical description
    of every simulated input (program keys and seeds, allocator keys,
    cache and level configurations with their policies, flush quanta).
    Cells are resolved by {!Runs.derive} and live in their own
    [derived/] namespace of the store, beside the grid's artifacts.

    Schema evolution works as for {!Artifact}: bump {!schema_version}
    whenever the encoding or the simulated contents change meaning; the
    {!meta} header's encoding is frozen, so {!decode_meta} reads
    payloads of every schema. *)

val schema_version : int

type row = {
  program : string;  (** Profile key. *)
  variant : string;  (** Allocator key, or an experiment's variant name. *)
  instructions : int;  (** Total I of the paper's model. *)
  allocator_instructions : int;  (** malloc + free instructions. *)
  heap_used : int;  (** Bytes obtained from sbrk. *)
  arena_pages : int option;
      (** Arena pages in use at the end of the run, for allocators that
          keep arenas ({!Allocators.Predictive}). *)
  stats : (string * Cachesim.Stats.t) list;
      (** Each consumer's statistics, under a name the experiment
          chooses (a cache config name, a hierarchy level, a flush
          quantum). *)
}

type meta = {
  id : string;  (** Experiment id, e.g. ["tabcpu"]. *)
  scale : float;  (** The effective scale the simulations ran at. *)
  schema_version : int;
  inputs : string;  (** Canonical description of the simulated inputs. *)
}

type t = { meta : meta; rows : row list }

val row :
  program:string ->
  variant:string ->
  ?arena_pages:int ->
  Workload.Driver.result ->
  (string * Cachesim.Stats.t) list ->
  row
(** Distil one finished driver pass and its consumers' statistics. *)

val of_artifact : variant:string -> Artifact.t -> row
(** A grid cell's row: its instructions, malloc + free instructions,
    heap, and every sweep member's statistics under its config name. *)

(** {1 Content addressing} *)

val inputs : (string * string list) list -> string
(** [inputs [(field, values); ...]] is the canonical description
    ["field=v1,v2;..."], in the given order. *)

val program : string -> string
(** ["key@seed"] for a profile key.  @raise Not_found if unknown. *)

val config : Cachesim.Config.t -> string
(** Name, size, block size, associativity and policy. *)

val cpu : Cachesim.Cpu.t -> string
(** The preset key and its level configurations (latencies are applied
    at render time, so they are not part of the description). *)

val digest_of_meta : meta -> string
(** Hex digest of the key ([id], [scale], [inputs]) plus
    {!schema_version} — the store filename. *)

(** {1 Codec} *)

val encode : t -> string

val decode : string -> (t, string) result
(** Inverse of {!encode}; [Error reason] on truncation, trailing bytes
    or a foreign {!schema_version}.  Never raises. *)

val decode_meta : string -> (meta, string) result
(** Read only the version-frozen header. *)

(** {1 What renderers read} *)

val find : row list -> program:string -> variant:string -> row
(** @raise Not_found if the cell has no such row. *)

val stats : row -> string -> Cachesim.Stats.t
(** @raise Not_found for a consumer the row did not record. *)

val allocator_fraction : row -> float
(** Fraction of instructions spent in malloc/free. *)
