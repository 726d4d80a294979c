open Memsim

type t = {
  heap : Heap.t;
  pool : Page_pool.t;
  map : Size_map.t;
  heads : Addr.t array;  (* static word per class: first free object *)
  frag_pages : (int, int) Hashtbl.t;  (* ordinal -> class index (shadow) *)
}

let create ?(classes = Size_map.default_classes) heap =
  if List.exists (fun c -> c > Page_pool.page_bytes) classes then
    invalid_arg "Custom.create: classes must fit in one page";
  let pool = Page_pool.create heap in
  let map = Size_map.create heap ~classes in
  let heads =
    Array.init (Size_map.num_classes map) (fun _ ->
        let a = Heap.alloc_static heap 4 in
        Heap.poke heap a 0;
        a)
  in
  { heap; pool; map; heads; frag_pages = Hashtbl.create 64 }

let create_for ~histogram ?max_classes heap =
  let classes = Size_map.design ?max_classes histogram in
  create ~classes heap

let per_page t c = Page_pool.page_bytes / Size_map.class_size t.map c

(* Take a page for class [c] and thread its objects onto the freelist. *)
let add_page t c =
  let page = Page_pool.alloc_pages t.pool 1 in
  let ordinal = Page_pool.ordinal_of_addr t.pool page in
  Page_pool.store_status t.pool ordinal (Page_pool.frag_status c);
  Hashtbl.replace t.frag_pages ordinal c;
  let size = Size_map.class_size t.map c in
  let count = per_page t c in
  let cell = t.heads.(c) in
  let head = ref (Heap.load t.heap cell) in
  for i = count - 1 downto 0 do
    Heap.charge t.heap 2;
    let obj = page + (i * size) in
    Heap.store t.heap obj !head;
    head := obj
  done;
  Heap.store t.heap cell !head

let malloc t n =
  Heap.charge t.heap 2;
  if n <= Size_map.max_small t.map then begin
    (* Fast path: one size-map load, one pop. *)
    let c = Size_map.lookup t.map n in
    let cell = t.heads.(c) in
    let head = Heap.load t.heap cell in
    let head =
      if head <> 0 then head
      else begin
        add_page t c;
        Heap.load t.heap cell
      end
    in
    let next = Heap.load t.heap head in
    Heap.store t.heap cell next;
    head
  end
  else Page_pool.alloc_pages t.pool (Page_pool.pages_of_bytes n)

let free t a =
  Heap.charge t.heap 2;
  let ordinal = Page_pool.ordinal_of_addr t.pool a in
  let status = Page_pool.load_status t.pool ordinal in
  match Page_pool.class_of_frag_status status with
  | Some c ->
      (* Push; pages are retained by their class, so no count upkeep. *)
      let cell = t.heads.(c) in
      let head = Heap.load t.heap cell in
      Heap.store t.heap a head;
      Heap.store t.heap cell a
  | None ->
      if status = Page_pool.status_used_head then Page_pool.free_pages t.pool a
      else
        failwith
          (Printf.sprintf "Custom.free: 0x%x has page status %d" a status)

let granted t n =
  if n <= Size_map.max_small t.map then
    (* The size-map lookup is traced only on the real path; this mirror
       is silent bookkeeping. *)
    let sizes = Size_map.classes t.map in
    let rec find i = if sizes.(i) >= n then sizes.(i) else find (i + 1) in
    find 0
  else Page_pool.pages_of_bytes n * Page_pool.page_bytes

let free_count t c =
  let rec walk a acc =
    if a = 0 then acc else walk (Heap.peek t.heap a) (acc + 1)
  in
  walk (Heap.peek t.heap t.heads.(c)) 0

let check_invariants t =
  Page_pool.check_invariants t.pool;
  for c = 0 to Size_map.num_classes t.map - 1 do
    let size = Size_map.class_size t.map c in
    let seen = Hashtbl.create 64 in
    let rec walk a =
      if a <> 0 then begin
        if Hashtbl.mem seen a then
          failwith (Printf.sprintf "Custom: cycle in class %d list" c);
        Hashtbl.replace seen a ();
        let ordinal = Page_pool.ordinal_of_addr t.pool a in
        (match Hashtbl.find_opt t.frag_pages ordinal with
        | Some c' when c' = c -> ()
        | _ ->
            failwith
              (Printf.sprintf
                 "Custom: object 0x%x in class %d list but page %d is not" a c
                 ordinal));
        let base = Page_pool.addr_of_ordinal t.pool ordinal in
        if (a - base) mod size <> 0 then
          failwith (Printf.sprintf "Custom: misaligned free object 0x%x" a);
        walk (Heap.peek t.heap a)
      end
    in
    walk (Heap.peek t.heap t.heads.(c))
  done

let pool t = t.pool
let raw_malloc = malloc
let raw_free = free
let raw_granted = granted
let raw_check = check_invariants

let allocator t =
  Allocator.make ~name:"custom" ~heap:t.heap
    { Allocator.impl_malloc = (fun n -> malloc t n);
      impl_free = (fun a -> free t a);
      granted_bytes = (fun n -> granted t n);
      check_invariants = (fun () -> check_invariants t);
      impl_malloc_sited = None;
    }
