(** Plays a {!Schedule} against a heap and an allocator.

    The player is the only part of a run that touches the simulated
    machine: it owns the schedule's object id → address table, makes
    every allocator call, and makes every {!Allocators.Heap.charge} and
    {!Memsim.Sim_memory} access the schedule's ops ask for.  The
    trace, the instruction counts and the allocator's statistics all
    come from here. *)

type t

val create :
  profile:Profile.t -> heap:Allocators.Heap.t -> alloc:Allocators.Allocator.t ->
  t
(** Places [profile]'s global segment in [heap]'s static region (silently,
    as program load does) and starts with no live object. *)

val play : t -> Schedule.t -> unit
(** Applies the schedule's current chunk, op by op, in order. *)
