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

(* The line-at-a-time text and CSV reader, the reference of
   [Memsim.Trace]'s one-pass reader: every line is found with
   [String.index_from_opt], handed to a parser closure, and its address
   walked a second time.  Same grammar, counts, batches and messages
   (with the line number) by construction; the fast reader is pinned to
   it on generated irregular captures. *)
module Trace_lines = struct
  module Batch = Memsim.Event.Batch

  let read_meta =
    Memsim.Event.Packed.meta ~kind:Memsim.Event.Read ~source:Memsim.Event.App
      ~size:1

  let write_meta =
    Memsim.Event.Packed.meta ~kind:Memsim.Event.Write ~source:Memsim.Event.App
      ~size:1

  let csv_header = "index,op,address"

  let is_blank data a b =
    let rec go i =
      i >= b || (match data.[i] with ' ' | '\t' -> go (i + 1) | _ -> false)
    in
    go a

  let hex_val c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> -1

  let bad what line_no data a b detail =
    let excerpt =
      let n = b - a in
      if n <= 60 then String.sub data a n else String.sub data a 57 ^ "..."
    in
    failwith
      (Printf.sprintf "Trace.%s: line %d: %s in %S" what line_no detail excerpt)

  let parse_addr what line_no data a b =
    let a =
      if
        b - a >= 2
        && data.[a] = '0'
        && (data.[a + 1] = 'x' || data.[a + 1] = 'X')
      then a + 2
      else a
    in
    if a >= b then bad what line_no data a b "missing address";
    let acc = ref 0 in
    for i = a to b - 1 do
      let d = hex_val data.[i] in
      if d < 0 then bad what line_no data a b "bad hex digit in address";
      if !acc > (max_int - d) / 16 then
        bad what line_no data a b "address overflows 63 bits";
      acc := (!acc * 16) + d
    done;
    !acc

  let parse_op what line_no data a b c =
    match c with
    | 'R' | 'r' -> read_meta
    | 'W' | 'w' -> write_meta
    | _ -> bad what line_no data a b "expected op R or W"

  let read_lines data (sink : Memsim.Sink.t) parse =
    let batch = Batch.create () in
    let cap = Batch.capacity batch in
    let flush () =
      if batch.Batch.len > 0 then begin
        sink batch;
        Batch.clear batch
      end
    in
    let len = String.length data in
    let count = ref 0 in
    let line_no = ref 0 in
    let pos = ref 0 in
    while !pos < len do
      incr line_no;
      let eol =
        match String.index_from_opt data !pos '\n' with
        | Some i -> i
        | None -> len
      in
      let b = if eol > !pos && data.[eol - 1] = '\r' then eol - 1 else eol in
      if not (is_blank data !pos b) then begin
        if batch.Batch.len = cap then flush ();
        parse !line_no !pos b batch;
        incr count
      end;
      pos := eol + 1
    done;
    flush ();
    !count

  let parse_text_line data line_no a b batch =
    let meta = parse_op "Text" line_no data a b data.[a] in
    let i = ref (a + 1) in
    while !i < b && (data.[!i] = ' ' || data.[!i] = '\t') do
      incr i
    done;
    if !i = a + 1 then bad "Text" line_no data a b "expected whitespace after op";
    let j = ref b in
    while !j > !i && (data.[!j - 1] = ' ' || data.[!j - 1] = '\t') do
      decr j
    done;
    let addr = parse_addr "Text" line_no data !i !j in
    Batch.push batch ~addr ~meta

  (* The index must spell the row's ordinal among the data rows. *)
  let parse_index line_no data a b c ordinal =
    let field = String.sub data a (c - a) in
    if field = "" then bad "Csv" line_no data a b "missing index";
    if not (String.for_all (fun ch -> ch >= '0' && ch <= '9') field) then
      bad "Csv" line_no data a b "index must be decimal digits";
    let digits =
      (* leading zeros dropped; an index longer than any int is no
         ordinal *)
      let n = String.length field in
      let rec skip i = if i < n - 1 && field.[i] = '0' then skip (i + 1) else i in
      let i = skip 0 in
      String.sub field i (n - i)
    in
    if digits <> string_of_int ordinal then
      bad "Csv" line_no data a b (Printf.sprintf "expected index %d" ordinal)

  let parse_csv_row data line_no a b ordinal batch =
    match String.index_from_opt data a ',' with
    | Some c1 when c1 < b -> (
        match String.index_from_opt data (c1 + 1) ',' with
        | Some c2 when c2 < b ->
            parse_index line_no data a b c1 ordinal;
            if c2 - c1 <> 2 then
              bad "Csv" line_no data a b "op column must be a single R or W";
            let meta = parse_op "Csv" line_no data a b data.[c1 + 1] in
            let addr = parse_addr "Csv" line_no data (c2 + 1) b in
            Batch.push batch ~addr ~meta
        | _ -> bad "Csv" line_no data a b "expected index,op,address")
    | _ -> bad "Csv" line_no data a b "expected index,op,address"

  let read_text data sink =
    read_lines data sink (fun line_no a b batch ->
        parse_text_line data line_no a b batch)

  let read_csv data sink =
    let seen_header = ref false and rows = ref 0 in
    let lines =
      read_lines data sink (fun line_no a b batch ->
          if !seen_header then begin
            parse_csv_row data line_no a b !rows batch;
            incr rows
          end
          else begin
            let line = String.lowercase_ascii (String.sub data a (b - a)) in
            if String.trim line <> csv_header then
              bad "Csv" line_no data a b
                (Printf.sprintf "expected header %S" csv_header);
            seen_header := true
          end)
    in
    lines - if !seen_header then 1 else 0
end
