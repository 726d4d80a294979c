(* Trace-position probes: sink-pipeline taps that turn one simulation's
   event stream into windowed time series (miss-rate evolution, footprint
   growth, reference mix), the paper's "how behaviour evolves over the
   trace" evidence that end-of-run aggregates cannot show. *)

module Windows = struct
  type t = {
    every : int;
    f : window:int -> events:int -> unit;
    mutable seen : int;
    mutable last_fire : int;
    mutable fired : int;
  }

  let create ~every ~f =
    if every < 1 then invalid_arg "Probe.Windows.create: every must be >= 1";
    { every; f; seen = 0; last_fire = 0; fired = 0 }

  let fire t =
    t.fired <- t.fired + 1;
    t.last_fire <- t.seen;
    t.f ~window:t.fired ~events:t.seen

  (* Fire at most once per delivery: a batch that crosses a boundary is
     indivisible downstream (fanout hands whole batches to each sibling),
     so sampling mid-batch is not possible anyway.  Windows therefore
     close at the first delivery edge >= [every] events after the last
     close; the callback receives the exact cumulative count.  Place the
     tap last in a fanout so sibling consumers have already absorbed
     everything up to [events] when the callback reads their state. *)
  let sink t (b : Memsim.Event.Batch.t) =
    t.seen <- t.seen + b.Memsim.Event.Batch.len;
    if t.seen - t.last_fire >= t.every then fire t

  let flush t = if t.seen > t.last_fire then fire t

  let events_seen t = t.seen
  let windows_fired t = t.fired
end
