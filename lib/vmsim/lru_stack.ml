module Table = Memsim.Addr.Index_map

type t = {
  mutable fenwick : Fenwick.t;
  (* Position of each key's most recent access in the time index; the
     Fenwick tree has a 1 at exactly those positions. *)
  last : Table.t;
  mutable now : int;
  mutable accesses : int;
  mutable cold : int;
  (* hist.(d) = accesses with stack distance d (1-based). *)
  mutable hist : int array;
  mutable max_dist : int;
}

(* A page stack sees tens to thousands of distinct pages, so the time
   index starts small and compaction sizes it to the footprint. *)
let create ?(initial_capacity = 1024) () =
  assert (initial_capacity > 1);
  { fenwick = Fenwick.create initial_capacity;
    last = Table.create 64;
    now = 0;
    accesses = 0;
    cold = 0;
    hist = Array.make 64 0;
    max_dist = 0 }

(* Renumber all keys' last-access times to 0 .. distinct-1 (preserving
   order) when the time index fills up, keeping the Fenwick tree small
   regardless of trace length: it grows to four times the footprint,
   and is reused while the footprint fits. *)
let compact t =
  let entries =
    Table.fold (fun key time acc -> (time, key) :: acc) t.last []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let needed = List.length entries in
  let cap = 4 * (needed + 1) in
  if cap > Fenwick.capacity t.fenwick then t.fenwick <- Fenwick.create cap
  else Fenwick.clear t.fenwick;
  List.iteri
    (fun i (_, key) ->
      Table.replace t.last key i;
      Fenwick.add t.fenwick i 1)
    entries;
  t.now <- needed

let bump_hist t d =
  if d >= Array.length t.hist then begin
    let bigger = Array.make (Int.max (d + 1) (2 * Array.length t.hist)) 0 in
    Array.blit t.hist 0 bigger 0 (Array.length t.hist);
    t.hist <- bigger
  end;
  t.hist.(d) <- t.hist.(d) + 1;
  if d > t.max_dist then t.max_dist <- d

let access t key =
  if t.now >= Fenwick.capacity t.fenwick then compact t;
  t.accesses <- t.accesses + 1;
  let t0 = Table.find t.last key ~default:(-1) in
  Table.replace t.last key t.now;
  let result =
    if t0 < 0 then begin
      t.cold <- t.cold + 1;
      0
    end
    else begin
      (* Distinct keys referenced strictly between t0 and now: each has
         its most-recent access inside the window. *)
      let between = Fenwick.range_sum t.fenwick ~lo:(t0 + 1) ~hi:(t.now - 1) in
      let distance = between + 1 in
      Fenwick.add t.fenwick t0 (-1);
      bump_hist t distance;
      distance
    end
  in
  Fenwick.add t.fenwick t.now 1;
  t.now <- t.now + 1;
  result

let accesses t = t.accesses
let cold t = t.cold
let distinct t = Table.length t.last
let histogram t = Array.sub t.hist 0 (t.max_dist + 1)

let misses_at t ~capacity =
  if capacity <= 0 then invalid_arg "Lru_stack.misses_at: capacity must be > 0";
  let beyond = ref 0 in
  for d = capacity + 1 to t.max_dist do
    beyond := !beyond + t.hist.(d)
  done;
  t.cold + !beyond

let miss_curve t ~capacities =
  List.map (fun c -> (c, misses_at t ~capacity:c)) capacities
