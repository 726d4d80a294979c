(* Chunked packed trace capture.  Each chunk is a fixed-capacity
   Event.Batch; filling one allocates the next, twice as large up to
   [chunk_capacity], so capturing an N-event trace costs ~2N ints in a
   handful of arrays — a short capture allocates in proportion to its
   length — with no per-event boxing and no quadratic re-blitting.
   Incoming batches are absorbed by blit. *)

type t = {
  chunk_capacity : int;
  mutable chunks_rev : Event.Batch.t list;  (* full chunks, newest first *)
  mutable current : Event.Batch.t;
  mutable total : int;
}

let default_chunk_capacity = 1 lsl 16
let first_chunk_capacity = 1 lsl 12

let create ?(chunk_capacity = default_chunk_capacity) () =
  if chunk_capacity < 1 then
    invalid_arg "Trace_buffer.create: chunk_capacity must be >= 1";
  { chunk_capacity;
    chunks_rev = [];
    current =
      Event.Batch.create
        ~capacity:(Int.min chunk_capacity first_chunk_capacity) ();
    total = 0 }

let length t = t.total

let rotate t =
  t.chunks_rev <- t.current :: t.chunks_rev;
  t.current <-
    Event.Batch.create
      ~capacity:(Int.min t.chunk_capacity (2 * Event.Batch.capacity t.current))
      ()

(* The sink: copy each incoming batch into the buffer, rotating at
   chunk boundaries. *)
let sink t (src : Event.Batch.t) =
  let off = ref 0 in
  let remaining = ref src.Event.Batch.len in
  while !remaining > 0 do
    let room = Event.Batch.capacity t.current - t.current.Event.Batch.len in
    if room = 0 then rotate t
    else begin
      let n = Int.min room !remaining in
      let cur = t.current in
      Array.blit src.Event.Batch.addrs !off cur.Event.Batch.addrs
        cur.Event.Batch.len n;
      Array.blit src.Event.Batch.metas !off cur.Event.Batch.metas
        cur.Event.Batch.len n;
      cur.Event.Batch.len <- cur.Event.Batch.len + n;
      off := !off + n;
      remaining := !remaining - n
    end
  done;
  t.total <- t.total + src.Event.Batch.len

let chunks t =
  let all = List.rev (if t.current.Event.Batch.len > 0 then t.current :: t.chunks_rev else t.chunks_rev) in
  Array.of_list all

let events t =
  Array.to_list (chunks t) |> List.concat_map Event.Batch.to_list

let replay t sink =
  let cs = chunks t in
  for i = 0 to Array.length cs - 1 do
    sink cs.(i)
  done

let iter_chunks f t =
  let cs = chunks t in
  for i = 0 to Array.length cs - 1 do
    f cs.(i)
  done
