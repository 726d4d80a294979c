(** Process-wide metrics registry: named, labelled counters, gauges and
    log-bucketed histograms, in the Prometheus data model.

    Hot-path updates go to per-domain shards (atomic slots indexed by
    domain id), so {!Exec.Pool} worker domains record without lock
    contention; {!snapshot} merges the shards.  A disabled registry
    makes every update a no-op behind one flag load, and instrumentation
    never touches the simulated machine, so enabling metrics cannot
    change simulation results.

    Families ({!Counter.family}, …) are created once, at module
    initialisation or command start-up; {!Counter.labels} resolves a
    labelled child (cheap, but mutex-guarded — resolve once per consumer
    and keep the handle, never per event). *)

type t
(** A registry. *)

val create : unit -> t
(** A fresh registry, initially disabled (every update a no-op). *)

val default : t
(** The process-wide registry all built-in instrumentation records to. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

(** {2 Snapshots} *)

type histogram_sample = {
  buckets : (float * int) list;
      (** (upper bound, cumulative count) per bucket, Prometheus-style;
          the final bound is [infinity]. *)
  sum : int;
  count : int;
}

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of histogram_sample

type sample = { labels : (string * string) list; v : value }

type family_snapshot = {
  fname : string;
  fhelp : string;
  ftype : string;  (** ["counter"], ["gauge"] or ["histogram"]. *)
  samples : sample list;
}

type snapshot = family_snapshot list

val snapshot : t -> snapshot
(** Merge every shard of every metric; families in registration order,
    children in creation order. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition format (text/plain version 0.0.4). *)

val to_json : snapshot -> string
(** The same snapshot as one JSON object ({!Metrics.Export} encoding). *)

(** {2 Metric kinds} *)

module Counter : sig
  type family
  type h

  val family :
    ?registry:t -> name:string -> help:string -> ?labels:string list ->
    unit -> family
  (** @raise Invalid_argument on a malformed or duplicate metric name,
      or a malformed label name. *)

  val labels : family -> string list -> h
  (** Resolve (or create) the child with the given label values.
      @raise Invalid_argument on a label-arity mismatch. *)

  val inc : ?by:int -> h -> unit
  (** Add [by] (default 1) to the calling domain's shard; no-op while
      the registry is disabled.  @raise Invalid_argument if [by < 0]. *)

  val value : h -> int
  (** Merged total across shards. *)

  val values : family -> (string list * int) list
  (** Every child's label values and merged total, oldest child first
      (the order of its samples in a snapshot). *)
end

module Gauge : sig
  type family
  type h

  val family :
    ?registry:t -> name:string -> help:string -> ?labels:string list ->
    unit -> family

  val labels : family -> string list -> h

  val set : h -> int -> unit
  (** Last-writer-wins (gauges are one atomic, not sharded: [set] does
      not merge).  No-op while the registry is disabled. *)

  val add : h -> int -> unit
  val value : h -> int
end

module Histogram : sig
  type family
  type h

  val family :
    ?registry:t -> name:string -> help:string -> ?labels:string list ->
    unit -> family

  val labels : family -> string list -> h

  val observe : h -> int -> unit
  (** Record one observation (clamped to >= 0) into its log-2 bucket:
      bucket upper bounds are 1, 2, 4, … 2^29, +Inf.  No-op while the
      registry is disabled. *)

  val count : h -> int
  val sum : h -> int

  val mean : h -> float
  (** [sum / count]; 0 when empty. *)

  val quantile : h -> float -> float
  (** [quantile h q] estimates the [q]-quantile ([q] clamped to
      [\[0, 1\]]) from the log-2 buckets, linearly interpolated inside
      the bucket holding the wanted rank — the same estimate
      Prometheus' [histogram_quantile] computes, so the serve stats
      endpoint and a scraping dashboard agree.  0 when empty; the
      overflow bucket reports its lower bound. *)
end
