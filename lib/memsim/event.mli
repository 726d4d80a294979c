(** Memory-reference events.

    A trace is a sequence of events, each describing one data reference:
    a read or write of [size] bytes starting at byte address [addr].  The
    [source] records who issued the reference — the application proper, or
    the allocator while servicing [malloc]/[free] — so downstream
    consumers can attribute cache misses the way the paper does (direct
    allocator misses vs. indirect placement effects).

    Events travel {e packed} as two native ints ({!Packed}) inside
    struct-of-arrays buffers ({!Batch}), so replaying a trace allocates
    nothing per event.  The boxed record {!t} is only a decoded view,
    for tests, the reference oracles and {!Trace_buffer.events}. *)

type kind =
  | Read
  | Write

type source =
  | App  (** Reference issued by application code. *)
  | Malloc  (** Reference issued inside the allocator's [malloc]. *)
  | Free  (** Reference issued inside the allocator's [free]. *)

type t = {
  kind : kind;
  source : source;
  addr : Addr.t;
  size : int;  (** Number of bytes referenced; at least 1. *)
}

val read : ?source:source -> Addr.t -> int -> t
(** [read addr size] is a read event.  [source] defaults to [App]. *)

val write : ?source:source -> Addr.t -> int -> t
(** [write addr size] is a write event.  [source] defaults to [App]. *)

val kind_to_string : kind -> string
val source_to_string : source -> string

val pp : Format.formatter -> t -> unit
(** Prints an event as e.g. [R app 0x00001000+4]. *)

type event = t
(** Alias for {!t}, usable where [t] is shadowed (inside {!Batch}). *)

(** The unboxed event codec: one event = (addr, meta), two native ints.
    The meta word is [size lsl 3  lor  kind lsl 2  lor  source] — the
    exact word {!Sink.Checksum} mixes per event. *)
module Packed : sig
  val meta : kind:kind -> source:source -> size:int -> int
  (** Encode kind/source/size into a meta word.  Lossless for any
      [size >= 0] up to [max_int lsr 3] — far beyond any reference the
      simulators emit. *)

  val meta_of_event : t -> int

  val kind : int -> kind
  val source : int -> source
  val size : int -> int

  val ks : int -> int
  (** [ks meta] is the fused kind x source index [ki*3 + si] (ki: 0
      read / 1 write; si: 0 app / 1 malloc / 2 free) — the 6-cell
      counter layout shared by {!Sink.Counter} and the cache
      simulators. *)

  val to_event : addr:int -> meta:int -> t
end

(** A batch of packed events in struct-of-arrays form: two parallel
    [int array]s and a length.  This is the wire format of the hot
    pipeline — producers fill a preallocated batch and hand it to a
    {!Sink.t}; consumers read [addrs]/[metas] directly
    and must treat the batch as read-only (fanout shares one batch among
    all its consumers) and fully consumed by the time they return. *)
module Batch : sig
  type t = {
    mutable addrs : int array;
    mutable metas : int array;
    mutable len : int;  (** Events live at indices [0 .. len-1]. *)
  }

  val default_capacity : int
  (** 256 events — the pipeline's delivery grain. *)

  val create : ?capacity:int -> unit -> t
  (** An empty batch with room for [capacity] (default
      {!default_capacity}) events before it grows.
      @raise Invalid_argument if [capacity < 1]. *)

  val capacity : t -> int
  val length : t -> int
  val clear : t -> unit

  val push : t -> addr:int -> meta:int -> unit
  (** Appends one packed event, growing (by doubling) when full. *)

  val push_event : t -> event -> unit
  (** Appends a boxed event, packing it. *)

  val append : t -> t -> unit
  (** [append b src] appends all of [src]'s events to [b]. *)

  val get : t -> int -> event
  (** [get b i] decodes event [i] to a boxed record.
      @raise Invalid_argument if [i] is out of bounds. *)

  val of_events : event array -> int -> t
  (** [of_events buf len] packs the first [len] boxed events. *)

  val to_list : t -> event list
end
