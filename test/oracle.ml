(* A deliberately slow, obviously-correct reference cache simulator.

   This is the executable specification the fast [Cachesim.Forest] is
   differentially tested against, member by member: association-list
   sets, textbook policy bookkeeping (an MRU-first tag list for LRU, a
   recursive bool tree for PLRU, per-way age lists for QLRU), everything
   recomputed from first principles on every access, one cache at a
   time.  It shares only the victim-side CONTRACT with the fast
   implementation, never its code:

   - invalid ways fill leftmost-first, before any replacement;
   - the victim is chosen only when the set is full. *)

open Cachesim

(* One resident line, keyed by its physical way. *)
type line = { way : int; tag : int; dirty : bool }

(* Textbook per-set policy memory. *)
type policy_mem =
  | M_lru of int list array  (* per set: resident tags, MRU first *)
  | M_plru of bool array array  (* per set: tree bits, length assoc-1 *)
  | M_qlru of (int * int) list array * int * int
      (* per set: (way, age) pairs; hit_age; insert_age *)

type t = {
  config : Config.t;
  num_sets : int;
  assoc : int;
  sets : line list array;  (* association list per set, any order *)
  mem : policy_mem;
  seen : (int, unit) Hashtbl.t;
  stats : Stats.t;
}

let create (config : Config.t) =
  let num_sets = Config.num_sets config in
  let assoc = config.associativity in
  let mem =
    match config.policy with
    | Policy.Lru -> M_lru (Array.make num_sets [])
    | Policy.Plru -> M_plru (Array.init num_sets (fun _ -> Array.make (assoc - 1) false))
    | Policy.Qlru { hit_age; insert_age } ->
        M_qlru (Array.make num_sets [], hit_age, insert_age)
  in
  { config;
    num_sets;
    assoc;
    sets = Array.make num_sets [];
    mem;
    seen = Hashtbl.create 64;
    stats = Stats.create () }

let stats t = t.stats
let config t = t.config

(* Tree-PLRU, textbook recursion over ways [lo, hi): a true bit sends
   the victim right; touching a way points every bit on its path at
   the other half. *)
let rec plru_touch bits node lo hi way =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    if way < mid then begin
      bits.(node) <- true;
      plru_touch bits ((2 * node) + 1) lo mid way
    end
    else begin
      bits.(node) <- false;
      plru_touch bits ((2 * node) + 2) mid hi way
    end
  end

let rec plru_victim bits node lo hi =
  if hi - lo <= 1 then lo
  else
    let mid = (lo + hi) / 2 in
    if bits.(node) then plru_victim bits ((2 * node) + 2) mid hi
    else plru_victim bits ((2 * node) + 1) lo mid

let qlru_age ages way = try List.assoc way ages with Not_found -> 0
let qlru_set_age ages way age = (way, age) :: List.remove_assoc way ages

(* Record that [way] of [set] was touched (hit or fresh fill). *)
let note_touch t ~set ~way ~tag ~filled =
  match t.mem with
  | M_lru order ->
      order.(set) <- tag :: List.filter (fun g -> g <> tag) order.(set)
  | M_plru bits -> plru_touch bits.(set) 0 0 t.assoc way
  | M_qlru (ages, hit_age, insert_age) ->
      ages.(set) <-
        qlru_set_age ages.(set) way (if filled then insert_age else hit_age)

(* Pick the way to evict from a full [set]. *)
let victim t ~set =
  let lines = t.sets.(set) in
  let way_of_tag tag = (List.find (fun l -> l.tag = tag) lines).way in
  match t.mem with
  | M_lru order ->
      (* Least recently used = last of the MRU-first list. *)
      way_of_tag (List.nth order.(set) (List.length order.(set) - 1))
  | M_plru bits -> plru_victim bits.(set) 0 0 t.assoc
  | M_qlru (ages, _, _) ->
      (* Age the whole set until some line reaches 3 (persistently, as
         real QLRU hardware does), then evict the leftmost age-3 way. *)
      let a = ages.(set) in
      let max_age =
        List.fold_left (fun m w -> max m (qlru_age a w))
          0
          (List.init t.assoc (fun w -> w))
      in
      if max_age < 3 then
        ages.(set) <-
          List.init t.assoc (fun w -> (w, qlru_age a w + (3 - max_age)));
      let rec leftmost w =
        if w >= t.assoc - 1 then w
        else if qlru_age ages.(set) w = 3 then w
        else leftmost (w + 1)
      in
      leftmost 0

let touch_block t ~kind ~source ~block =
  let set = block mod t.num_sets in
  let lines = t.sets.(set) in
  let write = kind = Memsim.Event.Write in
  let miss =
    match List.find_opt (fun l -> l.tag = block) lines with
    | Some l ->
        if write && not l.dirty then
          t.sets.(set) <-
            { l with dirty = true }
            :: List.filter (fun o -> o.way <> l.way) lines;
        note_touch t ~set ~way:l.way ~tag:block ~filled:false;
        false
    | None ->
        let occupied = List.map (fun l -> l.way) lines in
        let way =
          (* Leftmost invalid way first; replacement only when full. *)
          match
            List.find_opt
              (fun w -> not (List.mem w occupied))
              (List.init t.assoc (fun w -> w))
          with
          | Some w -> w
          | None -> victim t ~set
        in
        (match List.find_opt (fun l -> l.way = way) lines with
        | Some evicted ->
            if evicted.dirty then Stats.record_writeback t.stats;
            (* The evicted tag leaves the recency list too. *)
            (match t.mem with
            | M_lru order ->
                order.(set) <-
                  List.filter (fun g -> g <> evicted.tag) order.(set)
            | M_plru _ | M_qlru _ -> ())
        | None -> ());
        t.sets.(set) <-
          { way; tag = block; dirty = write }
          :: List.filter (fun l -> l.way <> way) lines;
        note_touch t ~set ~way ~tag:block ~filled:true;
        true
  in
  let cold = miss && not (Hashtbl.mem t.seen block) in
  if cold then Hashtbl.replace t.seen block ();
  Stats.record t.stats ~kind ~source ~miss ~cold;
  miss

let access t (e : Memsim.Event.t) =
  let bb = t.config.Config.block_bytes in
  for block = e.addr / bb to (e.addr + e.size - 1) / bb do
    ignore (touch_block t ~kind:e.kind ~source:e.source ~block)
  done

(* A context-switch flush: every dirty line is written back, every set
   empties and the policy memory starts over. *)
let flush t =
  Array.iteri
    (fun set lines ->
      List.iter (fun l -> if l.dirty then Stats.record_writeback t.stats) lines;
      t.sets.(set) <- [])
    t.sets;
  match t.mem with
  | M_lru order -> Array.fill order 0 t.num_sets []
  | M_plru bits ->
      Array.iter (fun b -> Array.fill b 0 (Array.length b) false) bits
  | M_qlru (ages, _, _) -> Array.fill ages 0 t.num_sets []

(* An obviously-correct (quadratic) LRU stack, the oracle of
   [Vmsim.Lru_stack] and [Vmsim.Page_sim]: an MRU-first key list, and
   the stack distance (1-based LRU position, [None] when cold) of every
   access, most recent first. *)
module Naive_lru = struct
  type t = { mutable stack : int list; mutable distances : int option list }

  let create () = { stack = []; distances = [] }

  let access t key =
    let rec position i = function
      | [] -> None
      | k :: _ when k = key -> Some i
      | _ :: rest -> position (i + 1) rest
    in
    let d = position 1 t.stack in
    t.stack <- key :: List.filter (fun k -> k <> key) t.stack;
    t.distances <- d :: t.distances;
    d

  (* Replays the recorded distances like [Lru_stack.misses_at]. *)
  let misses_at t ~capacity =
    List.fold_left
      (fun acc d ->
        match d with
        | Some dist when dist <= capacity -> acc
        | Some _ | None -> acc + 1)
      0 t.distances
end
