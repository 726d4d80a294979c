module Op = struct
  let touch = 0
  let global = 1
  let compute = 2
  let malloc = 3
  let free = 4
  let realloc = 5
  let widths = [| 5; 3; 2; 5; 2; 3 |]
  let width tag = widths.(tag)
end

let recent_window = 16

(* Objects are ids into [sizes], [slots] and [born]; a dead object's id
   goes to [free_ids] and the next birth takes it, so the tables are as
   large as the most objects ever live at once.  [live] holds the live
   ids (O(1) pick and swap-remove), [slots] each id's position there (-1
   once dead), [born] the birth serial (the count of earlier births) of
   the object holding the id, and the death queue is a binary min-heap
   on ([death_time], [death_id]).  Every table grows by doubling, so a
   schedule allocates per object, never per op. *)
type t = {
  p : Profile.t;
  scale : float;
  steps : int;
  rng : Rng.t;
  alloc_prob : float;
  hot_bytes : int;
  step_ops : int;  (* ints one step can emit, its deaths aside *)
  ops : int array;
  mutable len : int;
  mutable step : int;
  mutable next_id : int;  (* ids ever handed out *)
  mutable free_ids : int array;
  mutable free_len : int;
  mutable sizes : int array;
  mutable slots : int array;
  mutable born : int array;
  mutable live : int array;
  mutable live_len : int;
  mutable death_time : int array;
  mutable death_id : int array;
  mutable deaths : int;
  recent : int array;  (* ids of the last births, by serial mod window *)
  mutable recent_cursor : int;  (* births so far: the next serial *)
  mutable retained : int;
}

let grow a len =
  let bigger = Array.make (2 * len) 0 in
  Array.blit a 0 bigger 0 len;
  bigger

let create ~profile:p ~scale =
  Profile.validate p;
  let step_ops =
    Op.(width malloc + width touch + width realloc + width touch
        + (p.Profile.refs_per_step * width touch)
        + (p.Profile.global_refs_per_step * width global)
        + width compute)
  in
  { p;
    scale;
    steps = Profile.scaled_steps p ~scale;
    rng = Rng.create p.Profile.seed;
    alloc_prob = 1. /. p.Profile.alloc_every;
    hot_bytes = Int.max 64 (p.Profile.global_bytes / 16);
    step_ops;
    ops = Array.make (4 * step_ops) 0;
    len = 0;
    step = 0;
    next_id = 0;
    free_ids = Array.make 64 0;
    free_len = 0;
    sizes = Array.make 64 0;
    slots = Array.make 64 0;
    born = Array.make 64 0;
    live = Array.make 64 0;
    live_len = 0;
    death_time = Array.make 64 0;
    death_id = Array.make 64 0;
    deaths = 0;
    recent = Array.make recent_window 0;
    recent_cursor = 0;
    retained = 0 }

let steps g = g.steps
let ops g = g.ops
let length g = g.len

(* ---- objects -------------------------------------------------------- *)

let new_id g =
  if g.free_len > 0 then begin
    g.free_len <- g.free_len - 1;
    g.free_ids.(g.free_len)
  end
  else begin
    let id = g.next_id in
    g.next_id <- id + 1;
    if id = Array.length g.sizes then begin
      g.sizes <- grow g.sizes id;
      g.slots <- grow g.slots id;
      g.born <- grow g.born id
    end;
    id
  end

let release g id =
  if g.free_len = Array.length g.free_ids then
    g.free_ids <- grow g.free_ids g.free_len;
  g.free_ids.(g.free_len) <- id;
  g.free_len <- g.free_len + 1

let add_live g id =
  if g.live_len = Array.length g.live then g.live <- grow g.live g.live_len;
  g.slots.(id) <- g.live_len;
  g.live.(g.live_len) <- id;
  g.live_len <- g.live_len + 1

let remove_live g id =
  let last = g.live.(g.live_len - 1) in
  g.live.(g.slots.(id)) <- last;
  g.slots.(last) <- g.slots.(id);
  g.live_len <- g.live_len - 1;
  g.slots.(id) <- -1

let pick g = g.live.(Rng.int g.rng g.live_len)

let push_death g time id =
  if g.deaths = Array.length g.death_time then begin
    g.death_time <- grow g.death_time g.deaths;
    g.death_id <- grow g.death_id g.deaths
  end;
  let dt = g.death_time and di = g.death_id in
  dt.(g.deaths) <- time;
  di.(g.deaths) <- id;
  g.deaths <- g.deaths + 1;
  let i = ref (g.deaths - 1) in
  while !i > 0 && dt.((!i - 1) / 2) > dt.(!i) do
    let parent = (!i - 1) / 2 in
    let t = dt.(parent) and d = di.(parent) in
    dt.(parent) <- dt.(!i);
    di.(parent) <- di.(!i);
    dt.(!i) <- t;
    di.(!i) <- d;
    i := parent
  done

let next_death g = if g.deaths = 0 then max_int else g.death_time.(0)

let pop_death g =
  let dt = g.death_time and di = g.death_id in
  let top = di.(0) in
  let n = g.deaths - 1 in
  g.deaths <- n;
  dt.(0) <- dt.(n);
  di.(0) <- di.(n);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < n && dt.(l) < dt.(!smallest) then smallest := l;
    if r < n && dt.(r) < dt.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let s = !smallest in
      let t = dt.(s) and d = di.(s) in
      dt.(s) <- dt.(!i);
      di.(s) <- di.(!i);
      dt.(!i) <- t;
      di.(!i) <- d;
      i := s
    end
  done;
  top

(* ---- ops ------------------------------------------------------------ *)

(* [next] reserves a step's worth of room before running it, so the
   emitters skip the bounds checks. *)
let[@inline] emit2 g tag a =
  let n = g.len and ops = g.ops in
  Array.unsafe_set ops n tag;
  Array.unsafe_set ops (n + 1) a;
  g.len <- n + 2

let[@inline] emit3 g tag a b =
  let n = g.len and ops = g.ops in
  Array.unsafe_set ops n tag;
  Array.unsafe_set ops (n + 1) a;
  Array.unsafe_set ops (n + 2) b;
  g.len <- n + 3

let[@inline] emit5 g tag a b c d =
  let n = g.len and ops = g.ops in
  Array.unsafe_set ops n tag;
  Array.unsafe_set ops (n + 1) a;
  Array.unsafe_set ops (n + 2) b;
  Array.unsafe_set ops (n + 3) c;
  Array.unsafe_set ops (n + 4) d;
  g.len <- n + 5

(* Touch [bytes] of an object starting at a word-rounded offset. *)
let[@inline] touch g id bytes write =
  let size = g.sizes.(id) in
  let bytes = Int.max 4 (Int.min bytes size) in
  let max_off = size - bytes in
  let off =
    if max_off <= 0 || Rng.bool g.rng 0.7 then 0
    else Rng.int g.rng (max_off / 4 + 1) * 4
  in
  emit5 g Op.touch id off bytes write

(* One step after its deaths: the draws, in the one order every
   consumer of the schedule sees. *)
let run_step g step =
  let p = g.p and rng = g.rng in
  (* Births.  While the (linearly growing, scale-adjusted) retained
     target is unmet, the allocation is persistent program data drawn
     from the retained size mix; otherwise it is a temporary with an
     exponential lifetime. *)
  if Rng.bool rng g.alloc_prob then begin
    let target =
      int_of_float
        (float_of_int p.Profile.retained_bytes *. g.scale
        *. float_of_int (step + 1) /. float_of_int g.steps)
    in
    let is_retained = g.retained < target in
    let size =
      Dist.sample
        (if is_retained then p.Profile.retained_size_dist
         else p.Profile.size_dist)
        rng
    in
    (* Lifetime is decided up front so the allocation site can carry
       lifetime signal (Barrett & Zorn): short-lived allocations come
       from one half of the site space, long-lived from the other,
       with [site_noise] contradictions.  A retained object's life is
       -1 (forever). *)
    let life =
      if is_retained then -1
      else begin
        let mean =
          if Rng.bool rng p.Profile.mortal_lifetime_long_frac then
            10. *. p.Profile.mortal_lifetime_mean
          else p.Profile.mortal_lifetime_mean
        in
        Int.max 1 (int_of_float (Rng.exponential rng ~mean))
      end
    in
    let long =
      life < 0 || float_of_int life > 2. *. p.Profile.mortal_lifetime_mean
    in
    let site =
      let half = p.Profile.site_count / 2 in
      let in_long_half =
        if Rng.bool rng p.Profile.site_noise then not long else long
      in
      if in_long_half then half + Rng.int rng (p.Profile.site_count - half)
      else Rng.int rng half
    in
    let id = new_id g in
    g.sizes.(id) <- size;
    g.born.(id) <- g.recent_cursor;
    emit5 g Op.malloc id size site (Bool.to_int long);
    add_live g id;
    g.recent.(g.recent_cursor mod recent_window) <- id;
    g.recent_cursor <- g.recent_cursor + 1;
    (* Initialisation writes. *)
    touch g id (Int.min size p.Profile.init_touch_bytes) 1;
    if life < 0 then g.retained <- g.retained + size
    else push_death g (step + life) id
  end;
  (* Buffer growth: realloc one live object to twice its size (capped),
     as interpreters growing strings/stacks do. *)
  if
    p.Profile.realloc_prob > 0.
    && g.live_len > 0
    && Rng.bool rng p.Profile.realloc_prob
  then begin
    let id = pick g in
    let size = g.sizes.(id) in
    if size < p.Profile.realloc_cap then begin
      let bigger =
        Int.min p.Profile.realloc_cap (Int.max (size + 4) (size * 2))
      in
      emit3 g Op.realloc id bigger;
      g.sizes.(id) <- bigger;
      (* The app initialises the grown tail. *)
      touch g id (Int.min bigger p.Profile.init_touch_bytes) 1
    end
  end;
  (* Heap references: mostly a recently allocated object, while it
     lives (its id is live and still holds that birth), otherwise a
     uniformly random live one. *)
  if g.live_len > 0 then
    for _ = 1 to p.Profile.refs_per_step do
      let id =
        if Rng.bool rng p.Profile.recent_bias then begin
          let upto = Int.min g.recent_cursor recent_window in
          let serial = g.recent_cursor - 1 - Rng.int rng upto in
          let cand = g.recent.(serial mod recent_window) in
          if g.slots.(cand) < 0 || g.born.(cand) <> serial then pick g
          else cand
        end
        else pick g
      in
      let write = Rng.bool rng p.Profile.write_fraction in
      touch g id p.Profile.touch_bytes (Bool.to_int write)
    done;
  (* Global segment references. *)
  for _ = 1 to p.Profile.global_refs_per_step do
    let span =
      if Rng.bool rng p.Profile.global_hot_fraction then g.hot_bytes
      else p.Profile.global_bytes
    in
    let off = Rng.int rng (span / 4) * 4 in
    let write = Rng.bool rng p.Profile.write_fraction in
    emit3 g Op.global off (Bool.to_int write)
  done;
  (* Private computation. *)
  emit2 g Op.compute p.Profile.compute_per_step

(* Whole steps while one fits.  A step's deaths carry no draws, so a
   chunk may end among them and the next one resumes there. *)
let next g =
  g.len <- 0;
  let cap = Array.length g.ops in
  let full = ref false in
  while (not !full) && g.step < g.steps do
    let step = g.step in
    while g.len + Op.width Op.free <= cap && next_death g <= step do
      let id = pop_death g in
      remove_live g id;
      release g id;
      emit2 g Op.free id
    done;
    if next_death g <= step || g.len + g.step_ops > cap then full := true
    else begin
      run_step g step;
      g.step <- step + 1
    end
  done;
  g.len > 0
