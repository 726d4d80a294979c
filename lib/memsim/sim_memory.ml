(* The backing store is a two-level paged array indexed by word index:
   a top-level array of fixed-size word pages, grown on demand.  A page
   is allocated on its first store; every slot without one points at a
   shared all-zero page, so a load is two array reads with no branch on
   whether the page exists, and reads of never-stored words are 0.  The
   footprint is proportional to the number of distinct pages stored to,
   not to the highest address — the heap region starts above the 4 MiB
   static region, and a dense array would allocate and zero everything
   below it once per simulated run.

   Trace emission is packed and batched at the source: each access
   appends (addr, meta) to an internal {!Event.Batch} — two int stores,
   no [Event.t] record — which is delivered downstream as one sink call
   per 256 events.  A byte range's whole-word pieces are written
   straight into the batch arrays, its room checked once per run of
   pieces rather than once per word; deliveries still land on the same
   fixed 256-event boundaries.  Anything observing the sink's state
   must {!flush} first. *)

let page_bits = 10
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

(* Never written: [set_word] replaces it with a fresh page first. *)
let zero_page = Array.make page_words 0

type t = {
  mutable pages : int array array;
  mutable sink : Sink.t;
  mutable source : Event.source;
  mutable src_bits : int;  (* Packed.source_bits of [source], cached *)
  buf : Event.Batch.t;
}

let batch_capacity = Event.Batch.default_capacity

let create ?(sink = Sink.null) () =
  { pages = Array.make 16 zero_page;
    sink;
    source = Event.App;
    src_bits = 0;
    buf = Event.Batch.create ~capacity:batch_capacity () }

(* Install a fresh page at page index [p], growing the top level (by
   doubling) until [p] is in range. *)
let alloc_page t p =
  let n = Array.length t.pages in
  if p >= n then begin
    let rec go n' = if p < n' then n' else go (2 * n') in
    let pages = Array.make (go (2 * n)) zero_page in
    Array.blit t.pages 0 pages 0 n;
    t.pages <- pages
  end;
  let page = Array.make page_words 0 in
  Array.unsafe_set t.pages p page;
  page

let flush t =
  if t.buf.Event.Batch.len > 0 then begin
    t.sink t.buf;
    Event.Batch.clear t.buf
  end

let set_sink t sink =
  (* Anything already buffered belongs to the old sink's trace. *)
  flush t;
  t.sink <- sink

let source t = t.source

let set_source t src =
  t.source <- src;
  t.src_bits <- (match src with Event.App -> 0 | Event.Malloc -> 1 | Event.Free -> 2)

let with_source t src f =
  let saved = t.source in
  set_source t src;
  Fun.protect ~finally:(fun () -> set_source t saved) f

let check_word_addr a =
  if not (Addr.word_aligned a) then
    invalid_arg (Printf.sprintf "Sim_memory: unaligned word access at 0x%x" a);
  if a <= 0 then
    invalid_arg (Printf.sprintf "Sim_memory: access to null/negative 0x%x" a)

let set_word t i v =
  let p = i lsr page_bits in
  let page =
    if p < Array.length t.pages then
      let page = Array.unsafe_get t.pages p in
      if page != zero_page then page else alloc_page t p
    else alloc_page t p
  in
  Array.unsafe_set page (i land page_mask) v

let get_word t i =
  let p = i lsr page_bits in
  if p < Array.length t.pages then
    Array.unsafe_get (Array.unsafe_get t.pages p) (i land page_mask)
  else 0

(* Append one packed event, flushing at the batch grain.  [kmeta] is the
   meta word sans source bits: size lsl 3 (read) or size lsl 3 lor 4
   (write). *)
let emit_packed t addr kmeta =
  Event.Batch.push t.buf ~addr ~meta:(kmeta lor t.src_bits);
  (* Flush-on-full after the push: deliveries land on fixed 256-event
     boundaries. *)
  if t.buf.Event.Batch.len = batch_capacity then flush t

(* Word-access meta words, precomputed: word_bytes lsl 3 (+ write bit). *)
let word_read_meta = Addr.word_bytes lsl 3
let word_write_meta = (Addr.word_bytes lsl 3) lor 4

let load t a =
  check_word_addr a;
  emit_packed t a word_read_meta;
  get_word t (Addr.word_index a)

let store t a v =
  check_word_addr a;
  emit_packed t a word_write_meta;
  set_word t (Addr.word_index a) v

let ranged t kbit a n =
  assert (n >= 0);
  if n > 0 then begin
    (* Word-grain events, as PIXIE traces are: first piece may be a
       partial word, then whole words, then a partial last word. *)
    let w = Addr.word_bytes in
    let first = Int.min n (w - (a land (w - 1))) in
    emit_packed t a ((first lsl 3) lor kbit);
    let pos = ref (a + first) in
    let words = ref ((n - first) / w) in
    (* The whole words go straight into the batch arrays, a run at a
       time: [buf] starts at [batch_capacity] and is flushed whenever it
       fills, so it never grows and its arrays have room for a run. *)
    let meta = (w lsl 3) lor kbit lor t.src_bits in
    while !words > 0 do
      let b = t.buf in
      let len = b.Event.Batch.len in
      let run = Int.min !words (batch_capacity - len) in
      let addrs = b.Event.Batch.addrs and metas = b.Event.Batch.metas in
      for i = 0 to run - 1 do
        Array.unsafe_set addrs (len + i) (!pos + (i * w));
        Array.unsafe_set metas (len + i) meta
      done;
      b.Event.Batch.len <- len + run;
      pos := !pos + (run * w);
      words := !words - run;
      if len + run = batch_capacity then flush t
    done;
    let tail = (n - first) land (w - 1) in
    if tail > 0 then emit_packed t !pos ((tail lsl 3) lor kbit)
  end

let read_bytes t a n = ranged t 0 a n
let write_bytes t a n = ranged t 4 a n
let access_bytes t ~write a n = ranged t (Bool.to_int write lsl 2) a n

let peek t a =
  check_word_addr a;
  get_word t (Addr.word_index a)

let poke t a v =
  check_word_addr a;
  set_word t (Addr.word_index a) v
