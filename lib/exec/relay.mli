(** Runs a simulation's consumers on an idle core.

    A cold grid cell is one driver feeding several consumers (the cache
    sweep, the page simulator, a checksum), and nearly all of its time
    is consumer time.  A relay moves a consumer set onto a helper domain
    while the driver keeps running on the caller: a single-producer,
    single-consumer ring of a few large slots carries the stream across.
    The caller's sink copies every batch it is handed into the slot
    being filled, so the {!Memsim.Sink} ownership rule is unchanged (the
    producer may reuse its batch the moment the call returns), and the
    helper delivers the slots to the relayed consumers in order: they
    see exactly the ordered stream they would see inline.

    {b The spare-core rule} ({!Cores}).  A relay takes a helper only
    while the process's live simulation domains — the caller, the live
    {!Pool} workers and the helpers in use — are fewer than
    [Domain.recommended_domain_count ()]; otherwise it runs inline,
    exactly as a direct call would.  A helper domain is reused by every
    relay that finds it idle; an idle helper blocks, it does not spin,
    and it retires (its domain ends) after a fraction of a second
    without a relay, because an idle domain still slows every minor
    collection of the process.  A helper runs with a small minor heap
    and its relay loop allocates nothing per slot. *)

type path =
  | Relayed  (** The consumers ran on a helper domain. *)
  | Inline  (** The consumers ran on the caller. *)

val with_sink : Memsim.Sink.t -> (Memsim.Sink.t -> 'a) -> 'a
(** [with_sink remote f] is [f remote] in effect.  When a core is idle
    it calls [f local] instead, where [local] relays every batch to
    [remote] on a helper domain, and returns once [remote] has consumed
    the whole stream.  An exception raised by [remote] is re-raised on
    the caller (with its backtrace); the next batch [f] delivers raises
    it too, so the driver stops as it would inline.  If [f] raises, the
    batches it delivered are still consumed, the helper is released and
    [f]'s exception is re-raised. *)

val with_path : path -> (unit -> 'a) -> 'a
(** [with_path p f] runs [f] with every relay that the calling domain
    makes inside it taking path [p], whatever the idle cores: the two
    paths can then be compared on any host.  [Relayed] spawns or reuses
    a helper even on one core.  Relays made by other domains (e.g. pool
    workers) are not affected. *)
