(** Trace-position probes: taps on a {!Memsim.Sink} pipeline that
    produce windowed time series over the reference stream — the
    "behaviour over trace position" evidence (miss-rate evolution,
    footprint growth, reference mix) that end-of-run aggregates hide.

    A probe only counts; it never emits events or touches the simulated
    machine, so adding or removing probes cannot change simulation
    results. *)

(** A window tap: counts the events flowing past and fires a callback
    every [every] events, at which point sibling sinks in the same
    fanout (cache simulators, counters, the page simulator) can be
    sampled for a windowed reading. *)
module Windows : sig
  type t

  val create : every:int -> f:(window:int -> events:int -> unit) -> t
  (** [f ~window ~events] is called with the 1-based window index and
      the exact cumulative event count at the close.  Windows close at
      the first delivery edge at least [every] events after the last
      close: a batch is indivisible downstream, so a window closes at
      the end of the batch that reaches it.
      @raise Invalid_argument if [every < 1]. *)

  val sink : t -> Memsim.Sink.t
  (** The tap.  Place it {e last} in the fanout so sibling consumers
      have absorbed everything up to [events] when [f] samples them. *)

  val flush : t -> unit
  (** Close the final partial window, if any events arrived since the
      last close. *)

  val events_seen : t -> int
  val windows_fired : t -> int
end
