(* Trace-position probes: sink-pipeline taps that turn one simulation's
   event stream into windowed time series (miss-rate evolution, footprint
   growth, reference mix), the paper's "how behaviour evolves over the
   trace" evidence that end-of-run aggregates cannot show. *)

module Series = struct
  type t = {
    columns : string list;
    mutable rows_rev : string list list;
    mutable n : int;
  }

  let create ~columns =
    if columns = [] then invalid_arg "Probe.Series.create: no columns";
    { columns; rows_rev = []; n = 0 }

  let columns t = t.columns
  let length t = t.n

  let add t row =
    if List.length row <> List.length t.columns then
      invalid_arg
        (Printf.sprintf "Probe.Series.add: %d fields for %d columns"
           (List.length row) (List.length t.columns));
    t.rows_rev <- row :: t.rows_rev;
    t.n <- t.n + 1

  let rows t = List.rev t.rows_rev

  let to_csv t =
    String.concat "\n"
      (Metrics.Export.csv_row t.columns
      :: List.rev_map Metrics.Export.csv_row t.rows_rev)
    ^ "\n"

  let write_csv t ~path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (to_csv t))
end

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
