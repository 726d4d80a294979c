(* Gross sizes are at least 16, so bins below 4 are never used; 64 MB
   heaps never produce blocks at or above 2^27. *)
let min_bin = 4
let max_bin = 27

let bin_of_size size =
  assert (size >= Boundary_tag.min_block);
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  let b = log2 size 0 in
  Int.min b max_bin

type t = {
  heap : Heap.t;
  bins : Freelist.t array;  (* index 0 = bin min_bin *)
  mutable core : Seq_fit.t option;
  search_h : Telemetry.Metrics.Histogram.h;
}

let node_of_block b = b + 4
let block_of_node n = n - 4
let core t = Option.get t.core
let bin t i = t.bins.(i - min_bin)

(* Computing the bin (a log2 loop in the real code). *)
let charge_binning t = Heap.charge t.heap 4

let find_fit t (_ : Seq_fit.t) ~gross =
  charge_binning t;
  let i0 = bin_of_size gross in
  let examined = ref 0 in
  (* First-fit scan within the request's own bin. *)
  let rec scan fl node =
    if node = Freelist.head fl then None
    else begin
      Heap.charge t.heap 2;
      incr examined;
      let block = block_of_node node in
      let size, _ = Boundary_tag.read_header t.heap ~block in
      if size >= gross then Some block else scan fl (Freelist.next fl node)
    end
  in
  let own =
    let fl = bin t i0 in
    match Freelist.first fl with
    | None -> None
    | Some node -> scan fl node
  in
  let found =
    match own with
    | Some _ as found -> found
    | None ->
        (* Any block in a larger bin fits; take the first one found. *)
        let rec bigger i =
          if i > max_bin then None
          else begin
            Heap.charge t.heap 1;
            match Freelist.first (bin t i) with
            | Some node ->
                incr examined;
                Some (block_of_node node)
            | None -> bigger (i + 1)
          end
        in
        bigger (i0 + 1)
  in
  Telemetry.Metrics.Histogram.observe t.search_h !examined;
  found

let insert_free t (_ : Seq_fit.t) ~block ~size =
  charge_binning t;
  Freelist.insert_front (bin t (bin_of_size size)) (node_of_block block)

let remove_free t (_ : Seq_fit.t) ~block ~size =
  Freelist.remove (bin t (bin_of_size size)) (node_of_block block)

let resize_free t (_ : Seq_fit.t) ~block ~old_size ~new_size =
  (* A resized block may belong to a different bin. *)
  let ob = bin_of_size old_size and nb = bin_of_size new_size in
  if ob <> nb then begin
    charge_binning t;
    Freelist.remove (bin t ob) (node_of_block block);
    Freelist.insert_front (bin t nb) (node_of_block block)
  end

let note_alloc_from _t (_ : Seq_fit.t) ~block:_ = ()

let check_policy t (_ : Seq_fit.t) ~free_blocks =
  (* Every free block must sit in exactly its size's bin. *)
  let by_bin = Hashtbl.create 16 in
  List.iter
    (fun (block, size) ->
      let b = bin_of_size size in
      Hashtbl.replace by_bin b
        (block :: (Option.value ~default:[] (Hashtbl.find_opt by_bin b))))
    free_blocks;
  for i = min_bin to max_bin do
    let expected =
      Option.value ~default:[] (Hashtbl.find_opt by_bin i)
      |> List.sort compare
    in
    let actual =
      Freelist.to_list (bin t i) |> List.map block_of_node |> List.sort compare
    in
    if expected <> actual then
      failwith (Printf.sprintf "Gnu_gpp: bin %d does not match heap" i)
  done

let create ?extend_chunk ?split_threshold ?(owner = "gnu-g++") heap =
  let bins =
    Array.init (max_bin - min_bin + 1) (fun _ -> Freelist.create heap)
  in
  let t =
    { heap; bins; core = None;
      search_h = Alloc_metrics.search_length ~allocator:owner }
  in
  let policy =
    { Seq_fit.find_fit = (fun core ~gross -> find_fit t core ~gross);
      insert_free = (fun core ~block ~size -> insert_free t core ~block ~size);
      remove_free = (fun core ~block ~size -> remove_free t core ~block ~size);
      resize_free =
        (fun core ~block ~old_size ~new_size ->
          resize_free t core ~block ~old_size ~new_size);
      note_alloc_from = (fun core ~block -> note_alloc_from t core ~block);
      check_policy =
        (fun core ~free_blocks -> check_policy t core ~free_blocks);
    }
  in
  t.core <- Some (Seq_fit.create heap ?extend_chunk ?split_threshold policy);
  t

let allocator t =
  Allocator.make ~name:"gnu-g++" ~heap:t.heap
    { Allocator.impl_malloc = (fun n -> Seq_fit.malloc (core t) n);
      impl_free = (fun a -> Seq_fit.free (core t) a);
      granted_bytes = Seq_fit.gross_of_request;
      check_invariants = (fun () -> Seq_fit.check_invariants (core t));
      impl_malloc_sited = None;
    }

let bin_length t i = Freelist.length (bin t i)
let raw_malloc t n = Seq_fit.malloc (core t) n
let raw_free t a = Seq_fit.free (core t) a
let raw_check t = Seq_fit.check_invariants (core t)
let gross_of_request = Seq_fit.gross_of_request
