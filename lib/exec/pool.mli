(** A bounded pool of worker domains with deterministic result order.

    The run grid's cells (one fully instrumented simulation per
    (program, allocator) pair) are mutually independent: each owns its
    heap, RNG and simulator sinks.  This pool evaluates such independent
    jobs on OCaml 5 domains while presenting the sequential contract the
    reproduction depends on: {!map} returns results in input order and
    re-raises the first exception (by input position), so a parallel
    grid fill is observationally identical to [List.map] — only faster.

    Workers pull jobs from a queue guarded by a [Mutex]/[Condition]
    pair; nothing here is work-stealing or clever, because grid cells
    are coarse (hundreds of milliseconds to seconds each) and the win is
    simply keeping [jobs] cores busy. *)

type t

val create : jobs:int -> t
(** A pool running at most [jobs] tasks concurrently.  [jobs] is
    clamped to [\[1, 64\]] (OCaml 5 caps live domains at 128 per
    process).  With [jobs = 1] no domains are spawned and {!map}
    degenerates to [List.map] on the calling domain; if the runtime
    cannot allocate all requested domains the pool silently runs with
    however many it got, degrading throughput but never results.  Live
    workers count toward {!Cores}' spare-core rule until {!shutdown}
    joins them, so a pool of one worker per core leaves {!Relay} no
    helper to take. *)

val jobs : t -> int
(** The (clamped) parallelism the pool was created with. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs], possibly
    concurrently, and returns the results in the order of [xs].

    If one or more applications raise, the non-raising results are
    discarded and the exception of the smallest input index is
    re-raised (with its backtrace) on the calling domain — the same
    exception [List.map f xs] would surface, since [List.map] applies
    [f] left to right.

    @raise Invalid_argument if the pool has been {!shutdown}. *)

val shutdown : t -> unit
(** Joins the worker domains after they drain the queue.  Idempotent
    and safe to race: concurrent callers (e.g. a signal handler against
    the normal exit path) join disjoint worker sets, and an EINTR
    surfaced by a signal during the join is retried, so a second
    shutdown — or a second Ctrl-C — during drain never raises.  Calling
    {!map} or {!async} afterwards degrades as documented there. *)

(** {2 One-shot futures}

    The serve request path: connection handlers park a simulation on
    the pool and block on the result, so CPU work runs on worker
    domains while (cheap, I/O-bound) connection threads multiplex. *)

type 'a future

val async : t -> (unit -> 'a) -> 'a future
(** [async t f] schedules [f] on a worker domain and returns
    immediately.  On a pool with no workers (jobs = 1, spawn failure,
    or already shut down) [f] runs on the calling thread before [async]
    returns — the same sequential degradation as {!map}, so callers
    need no special case.  Exceptions raised by [f] are captured and
    re-raised by {!await}. *)

val await : 'a future -> 'a
(** Blocks until the future completes; returns its value or re-raises
    its exception (with the original backtrace).  Callable at most
    from any number of threads; every caller observes the same
    outcome. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and guarantees
    {!shutdown}, also on exception. *)

val recommended_jobs : unit -> int
(** One domain per core: [Domain.recommended_domain_count], clamped to
    [\[1, 64\]]. *)
