(** CUSTOM — the allocator architecture the paper's §4.4 advocates,
    in the spirit of the authors' CustoMalloc.

    Design, assembled from the study's conclusions:

    - {b segregated exact-fit freelists} with LIFO reuse, as in QuickFit
      — the fast path is an array lookup, a load and two stores;
    - {b measured size classes} through the Figure 9 size-mapping array
      ({!Size_map.design}), balancing re-use against internal
      fragmentation instead of BSD's crude powers of two;
    - {b no per-object boundary tags}: like GNU LOCAL, the owning class
      is recovered from the page's chunk header, so object memory holds
      only object data;
    - {b no coalescing} on the small path, and pages are retained by
      their class (no empty-page reclamation walk) to maximise object
      re-use;
    - large requests fall through to the page-run allocator
      ({!Page_pool}).

    The ablation benchmarks compare this design against its parents
    (QuickFit, BSD, GNU LOCAL). *)

type t

val create : ?classes:int list -> Heap.t -> t
(** [classes] defaults to {!Size_map.default_classes}; pass the result
    of {!Size_map.design} on a measured histogram to customise. *)

val create_for :
  histogram:(int * int) list -> ?max_classes:int -> Heap.t -> t
(** Convenience: design classes from a histogram, then {!create}. *)

val allocator : t -> Allocator.t

val pool : t -> Page_pool.t

val free_count : t -> int -> int
(** Untraced freelist length of a class index, for tests. *)

(** {1 Raw entry points}

    For hybrids that embed Custom as their general allocator
    ({!Predictive}); phases and statistics are the host's business. *)

val raw_malloc : t -> int -> Memsim.Addr.t
val raw_free : t -> Memsim.Addr.t -> unit
val raw_granted : t -> int -> int
val raw_check : t -> unit
