open Memsim

let page_bytes = 4096
let pages_of_bytes n = max 1 ((n + page_bytes - 1) / page_bytes)

let status_free_head = 1
let status_free_tail = 2
let status_used_head = 4
let status_used_cont = 5
let frag_status k = 16 + k
let class_of_frag_status s = if s >= 16 then Some (s - 16) else None

(* Shadow model for invariant checking only (outside the simulated
   machine). *)
type shadow_run = Sfree of int | Sused of int

type t = {
  heap : Heap.t;
  table : Addr.t;  (* static base of the entry table *)
  head_cell : Addr.t;  (* static 2 words: next/prev ordinals, -1 = none *)
  mutable frontier : int;  (* pages obtained from sbrk so far *)
  shadow : (int, shadow_run) Hashtbl.t;  (* head ordinal -> run *)
}

let entry_bytes = 16
let grow_pages = 16

let create heap =
  let region = Heap.heap_region heap in
  if Region.base region land (page_bytes - 1) <> 0 then
    invalid_arg "Page_pool.create: heap base must be page-aligned";
  let max_pages = (Region.limit region - Region.base region) / page_bytes in
  let table = Heap.alloc_static heap (max_pages * entry_bytes) in
  let head_cell = Heap.alloc_static heap 8 in
  Heap.poke heap head_cell (-1);
  Heap.poke heap (head_cell + 4) (-1);
  { heap; table; head_cell; frontier = 0; shadow = Hashtbl.create 256 }

let heap t = t.heap

let ordinal_of_addr t a =
  (a - Region.base (Heap.heap_region t.heap)) / page_bytes

let addr_of_ordinal t p =
  Region.base (Heap.heap_region t.heap) + (p * page_bytes)

let entry t p = t.table + (p * entry_bytes)
let load_status t p = Heap.load t.heap (entry t p)
let store_status t p v = Heap.store t.heap (entry t p) v
let load_aux t p = Heap.load t.heap (entry t p + 4)
let store_aux t p v = Heap.store t.heap (entry t p + 4) v
let peek_status t p = Heap.peek t.heap (entry t p)
let peek_aux t p = Heap.peek t.heap (entry t p + 4)
let load_next t p = Heap.load t.heap (entry t p + 8)
let store_next t p v = Heap.store t.heap (entry t p + 8) v
let load_prev t p = Heap.load t.heap (entry t p + 12)
let store_prev t p v = Heap.store t.heap (entry t p + 12) v

let head_next t = Heap.load t.heap t.head_cell
let set_head_next t v = Heap.store t.heap t.head_cell v

(* Free-run list management.  next/prev are ordinals; -1 terminates at
   the static head cell. *)
let link_front t p =
  let first = head_next t in
  store_next t p first;
  store_prev t p (-1);
  if first >= 0 then store_prev t first p;
  set_head_next t p

let unlink t p =
  let nxt = load_next t p and prv = load_prev t p in
  if prv >= 0 then store_next t prv nxt else set_head_next t nxt;
  if nxt >= 0 then store_prev t nxt prv

(* Write head (and tail, for len > 1) entries of a free run. *)
let write_free_run t ~head ~len =
  store_status t head status_free_head;
  store_aux t head len;
  if len > 1 then begin
    store_status t (head + len - 1) status_free_tail;
    store_aux t (head + len - 1) head
  end

let mark_used t ~head ~len =
  store_status t head status_used_head;
  store_aux t head len;
  for p = head + 1 to head + len - 1 do
    store_status t p status_used_cont
  done

(* Take [n] pages from the front of free run [head] (already linked). *)
let take_from_run t ~head ~len ~n =
  assert (len >= n);
  unlink t head;
  Hashtbl.remove t.shadow head;
  if len > n then begin
    let rest = head + n in
    write_free_run t ~head:rest ~len:(len - n);
    link_front t rest;
    Hashtbl.replace t.shadow rest (Sfree (len - n))
  end;
  mark_used t ~head ~len:n;
  Hashtbl.replace t.shadow head (Sused n);
  addr_of_ordinal t head

(* Free the run [head, head+len), coalescing with both neighbours. *)
let release_run t ~head ~len =
  Hashtbl.remove t.shadow head;
  (* Right neighbour. *)
  let len =
    let q = head + len in
    if q < t.frontier && load_status t q = status_free_head then begin
      let qlen = load_aux t q in
      unlink t q;
      Hashtbl.remove t.shadow q;
      len + qlen
    end
    else len
  in
  (* Left neighbour: the page just before is a free run's tail (or a
     one-page free run's head). *)
  let head, len =
    if head > 0 then begin
      let s = load_status t (head - 1) in
      if s = status_free_tail then begin
        let lh = load_aux t (head - 1) in
        let llen = load_aux t lh in
        unlink t lh;
        Hashtbl.remove t.shadow lh;
        (lh, len + llen)
      end
      else if s = status_free_head && load_aux t (head - 1) = 1 then begin
        let lh = head - 1 in
        unlink t lh;
        Hashtbl.remove t.shadow lh;
        (lh, len + 1)
      end
      else (head, len)
    end
    else (head, len)
  in
  write_free_run t ~head ~len;
  link_front t head;
  Hashtbl.replace t.shadow head (Sfree len)

(* Extend the heap by at least [n] pages and release the new run (which
   coalesces with a free run at the old top, if any).  Another allocator
   sharing the heap may have moved the break since our last growth; the
   pages in between belong to it and stay out of this pool (their table
   entries were never written, so coalescing cannot reach them). *)
let grow t n =
  let pages = max n grow_pages in
  let break = Memsim.Region.break (Heap.heap_region t.heap) in
  let base =
    if break land (page_bytes - 1) = 0 then Heap.sbrk t.heap (pages * page_bytes)
    else begin
      (* Re-align to a page boundary first. *)
      let pad = page_bytes - (break land (page_bytes - 1)) in
      let first = Heap.sbrk t.heap (pad + (pages * page_bytes)) in
      first + pad
    end
  in
  let head = ordinal_of_addr t base in
  assert (head >= t.frontier);
  t.frontier <- head + pages;
  release_run t ~head ~len:pages

let alloc_pages t n =
  assert (n >= 1);
  Heap.charge t.heap 4;
  (* First fit over the free-run list. *)
  let rec find p =
    if p < 0 then None
    else begin
      Heap.charge t.heap 2;
      let len = load_aux t p in
      if len >= n then Some (p, len) else find (load_next t p)
    end
  in
  match find (head_next t) with
  | Some (head, len) -> take_from_run t ~head ~len ~n
  | None ->
      grow t n;
      (* The new (possibly coalesced) run is at the list front and is
         guaranteed to fit. *)
      let head = head_next t in
      let len = load_aux t head in
      take_from_run t ~head ~len ~n

let free_pages t addr =
  let head = ordinal_of_addr t addr in
  let s = load_status t head in
  if s <> status_used_head then
    failwith
      (Printf.sprintf "Page_pool.free_pages: page %d is not a used head" head);
  let len = load_aux t head in
  release_run t ~head ~len

let used_page_count t =
  Hashtbl.fold
    (fun _ run acc -> match run with Sused l -> acc + l | Sfree _ -> acc)
    t.shadow 0

let check_invariants t =
  (* Shadow runs must be disjoint and ascending, with no two adjacent
     free runs.  Gaps are legal: they are pages another allocator
     sbrk'd between our growths. *)
  let runs =
    Hashtbl.fold (fun head run acc -> (head, run) :: acc) t.shadow []
    |> List.sort compare
  in
  let rec walk pos prev_free = function
    | [] ->
        if pos > t.frontier then
          failwith "Page_pool: runs extend past the frontier"
    | (head, run) :: rest ->
        if head < pos then
          failwith (Printf.sprintf "Page_pool: overlapping runs at page %d" head);
        let foreign_gap = head > pos in
        let len, is_free =
          match run with Sfree l -> (l, true) | Sused l -> (l, false)
        in
        if len < 1 then failwith "Page_pool: empty run";
        if (not foreign_gap) && prev_free && is_free then
          failwith
            (Printf.sprintf "Page_pool: adjacent free runs at page %d" head);
        walk (head + len) is_free rest
  in
  walk 0 false runs;
  (* The traced free list must contain exactly the shadow's free heads,
     with consistent head/tail entries. *)
  let shadow_free =
    List.filter_map
      (function
        | head, Sfree len -> Some (head, len)
        | _, Sused _ -> None)
      runs
  in
  let rec collect p acc =
    if p < 0 then List.rev acc
    else begin
      if List.mem_assoc p acc then failwith "Page_pool: free list cycle";
      let len = Heap.peek t.heap (entry t p + 4) in
      if Heap.peek t.heap (entry t p) <> status_free_head then
        failwith (Printf.sprintf "Page_pool: list member %d not a free head" p);
      if len > 1 then begin
        if Heap.peek t.heap (entry t (p + len - 1)) <> status_free_tail then
          failwith (Printf.sprintf "Page_pool: run %d tail entry damaged" p);
        if Heap.peek t.heap (entry t (p + len - 1) + 4) <> p then
          failwith (Printf.sprintf "Page_pool: run %d tail backlink damaged" p)
      end;
      collect (Heap.peek t.heap (entry t p + 8)) ((p, len) :: acc)
    end
  in
  let listed = collect (Heap.peek t.heap t.head_cell) [] in
  let sort = List.sort compare in
  if sort listed <> sort shadow_free then
    failwith "Page_pool: free list does not match shadow model"
