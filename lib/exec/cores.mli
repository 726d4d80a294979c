(** The spare-core rule: how many domains of this process are running
    simulation work, and whether one more would still find an idle core.

    A domain counts while it is a live {!Pool} worker or a {!Relay}
    helper in use, whether the helper runs a relayed consumer set or
    one side of {!Relay.both}; the domain asking counts too, unless it
    is itself a pool worker (already counted).  A helper may be taken only while
    that total is below [Domain.recommended_domain_count ()], which
    honours the process's CPU affinity (under [taskset -c 0] it is 1,
    so no helper is ever taken). *)

val enlist : int -> unit
(** [enlist n] counts [n] more live pool workers (or helpers in use,
    whatever the total). *)

val discharge : int -> unit
(** [discharge n] stops counting [n] pool workers (or helpers). *)

val mark_worker : unit -> unit
(** Called on a pool worker domain before it runs any task, so a relay
    made from it does not count it twice. *)

val try_take : unit -> bool
(** Counts one more helper in use and returns [true] iff the live
    total, the asking domain included, was below the recommended domain
    count; otherwise counts nothing and returns [false]. *)

val in_use : unit -> int
(** Live pool workers plus helpers in use, across every domain. *)
