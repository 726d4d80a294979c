type t = {
  page_bytes : int;
  page_shift : int;  (* log2 page_bytes: page index = addr lsr shift *)
  stack : Lru_stack.t;
  mutable references : int;
  (* Collapse consecutive same-page accesses: they are distance-1 hits at
     every memory size >= 1 page, so only the reference count matters. *)
  mutable last_page : int;
}

let create ?(page_bytes = 4096) () =
  if page_bytes <= 0 || page_bytes land (page_bytes - 1) <> 0 then
    invalid_arg "Page_sim.create: page size must be a positive power of two";
  let log2 n =
    let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
    go 0 n
  in
  { page_bytes;
    page_shift = log2 page_bytes;
    stack = Lru_stack.create ();
    references = 0;
    last_page = -1 }

let page_bytes t = t.page_bytes

let touch_page t page =
  if page <> t.last_page then begin
    ignore (Lru_stack.access t.stack page);
    t.last_page <- page
  end

(* Only addr and size matter to the page stack, both read straight from
   the packed ints. *)
let sink t (b : Memsim.Event.Batch.t) =
  let addrs = b.Memsim.Event.Batch.addrs and metas = b.Memsim.Event.Batch.metas in
  for i = 0 to b.Memsim.Event.Batch.len - 1 do
    t.references <- t.references + 1;
    let addr = Array.unsafe_get addrs i in
    let size = Array.unsafe_get metas i lsr 3 in
    let first = addr lsr t.page_shift in
    let last = (addr + size - 1) lsr t.page_shift in
    for page = first to last do
      touch_page t page
    done
  done

let references t = t.references
let distinct_pages t = Lru_stack.distinct t.stack

let faults t ~memory_bytes =
  let pages = Int.max 1 (memory_bytes / t.page_bytes) in
  Lru_stack.misses_at t.stack ~capacity:pages

let fault_rate t ~memory_bytes =
  if t.references = 0 then 0.
  else float (faults t ~memory_bytes) /. float t.references

let fault_rate_curve t ~memory_sizes =
  List.map (fun m -> (m, fault_rate t ~memory_bytes:m)) memory_sizes

let footprint_bytes t = distinct_pages t * t.page_bytes

let curve t =
  { Fault_curve.page_bytes = t.page_bytes;
    references = t.references;
    cold = Lru_stack.cold t.stack;
    hist = Lru_stack.histogram t.stack }

