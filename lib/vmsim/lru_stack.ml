module Table = Memsim.Addr.Index_map

(* Two tiers.  The [top] most recent keys sit in a move-to-front array,
   newest first: most page references land a few pages deep, where a
   short scan and shift beat any index.  Older keys form the lower
   tier, each numbered by the time it was demoted from the top.  The
   top demotes its least recent key, so demotion order is recency
   order, and the Fenwick tree, with a 1 at each lower key's time,
   counts the lower keys newer than any one of them in one prefix
   query.  A lower key is preceded by the whole (full) top tier, so its
   stack distance is [top] + (lower keys newer than it) + 1. *)
let top = 32

(* [last]'s value for a key in the top tier; a lower key's is its
   demotion time (>= 0), and an absent key's the [find] default. *)
let in_top = -1
let absent = -2

type t = {
  recent : int array;  (* the top tier, most recent first *)
  mutable recent_len : int;
  mutable fenwick : Fenwick.t;
  last : Table.t;
  mutable now : int;  (* the next demotion time *)
  mutable lower : int;  (* keys in the lower tier: the Fenwick total *)
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
  { recent = Array.make top 0;
    recent_len = 0;
    fenwick = Fenwick.create initial_capacity;
    last = Table.create 64;
    now = 0;
    lower = 0;
    accesses = 0;
    cold = 0;
    hist = Array.make 64 0;
    max_dist = 0 }

(* Renumber the lower tier's demotion times to 0 .. lower-1 (preserving
   order) when the time index fills up, keeping the Fenwick tree small
   regardless of trace length: it grows to four times the lower tier,
   and is reused while the lower tier fits.  Top-tier keys have no
   time and keep theirs. *)
let compact t =
  let entries =
    Table.fold
      (fun key time acc -> if time >= 0 then (time, key) :: acc else acc)
      t.last []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let cap = 4 * (t.lower + 1) in
  if cap > Fenwick.capacity t.fenwick then t.fenwick <- Fenwick.create cap
  else Fenwick.clear t.fenwick;
  List.iteri
    (fun i (_, key) ->
      Table.replace t.last key i;
      Fenwick.add t.fenwick i 1)
    entries;
  t.now <- t.lower

let bump_hist t d =
  if d >= Array.length t.hist then begin
    let bigger = Array.make (Int.max (d + 1) (2 * Array.length t.hist)) 0 in
    Array.blit t.hist 0 bigger 0 (Array.length t.hist);
    t.hist <- bigger
  end;
  t.hist.(d) <- t.hist.(d) + 1;
  if d > t.max_dist then t.max_dist <- d

(* Put [key] at the front of the top tier, shifting the [n] keys before
   it one slot back (over the slot it leaves, or the free slot [n]). *)
let to_front t key n =
  let r = t.recent in
  for i = n downto 1 do
    Array.unsafe_set r i (Array.unsafe_get r (i - 1))
  done;
  Array.unsafe_set r 0 key

(* Move the top tier's least recent key to the lower tier, as its
   newest key; its slot is then free for [to_front]. *)
let demote t =
  if t.now >= Fenwick.capacity t.fenwick then compact t;
  Table.replace t.last t.recent.(top - 1) t.now;
  Fenwick.add t.fenwick t.now 1;
  t.now <- t.now + 1;
  t.lower <- t.lower + 1

let access t key =
  t.accesses <- t.accesses + 1;
  let t0 = Table.find t.last key ~default:absent in
  if t0 = in_top then begin
    let r = t.recent in
    let i = ref 0 in
    while Array.unsafe_get r !i <> key do
      incr i
    done;
    to_front t key !i;
    let distance = !i + 1 in
    bump_hist t distance;
    distance
  end
  else if t0 >= 0 then begin
    let newer = t.lower - Fenwick.prefix_sum t.fenwick t0 in
    Fenwick.add t.fenwick t0 (-1);
    t.lower <- t.lower - 1;
    (* Out of the lower tier before [demote] may compact it. *)
    Table.replace t.last key in_top;
    demote t;
    to_front t key (top - 1);
    let distance = top + newer + 1 in
    bump_hist t distance;
    distance
  end
  else begin
    t.cold <- t.cold + 1;
    if t.recent_len < top then begin
      to_front t key t.recent_len;
      t.recent_len <- t.recent_len + 1
    end
    else begin
      demote t;
      to_front t key (top - 1)
    end;
    Table.replace t.last key in_top;
    0
  end

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
