type t = int

let word_bytes = 4
let null = 0
let is_null a = a = null

let is_aligned a ~alignment =
  assert (alignment > 0);
  a mod alignment = 0

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let align_up a ~alignment =
  assert (is_power_of_two alignment);
  (a + alignment - 1) land lnot (alignment - 1)

let align_down a ~alignment =
  assert (is_power_of_two alignment);
  a land lnot (alignment - 1)

let word_aligned a = a land (word_bytes - 1) = 0
let word_index a = a lsr 2

let block_index a ~block_bytes =
  assert (is_power_of_two block_bytes);
  a / block_bytes

let page_index a ~page_bytes =
  assert (page_bytes > 0);
  a / page_bytes

let pp ppf a = Format.fprintf ppf "0x%08x" a

(* Open-addressing tables keyed by a block or page index, for the
   per-event consumers: linear probing over a power-of-two array kept at
   most half full, so a lookup makes no indirect call and allocates
   nothing, and an insert allocates only when the array doubles.  The home slot is Fibonacci hashing's: the high
   bits of the key times the odd multiplier nearest 2^63 / phi, which
   depend on every low bit of the key.  The indices of a power-of-two
   strided trace share their low bits, which an identity hash would pile
   into one long probe run.  [min_int] marks an empty slot. *)

let empty = min_int
let golden = 0x4F1BBCDCBFA53E0B

let check_key fn k =
  if k = empty then invalid_arg (fn ^ ": min_int is not a valid key")

(* Slots for [n] keys at half load, a power of two, at least 8. *)
let slots_for n =
  let rec go c = if c >= 2 * n then c else go (2 * c) in
  go 8

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let[@inline] home k ~shift = (k * golden) lsr shift

module Index_set = struct
  type t = {
    mutable keys : int array;
    mutable shift : int;  (* 63 - log2 (Array.length keys) *)
    mutable count : int;
  }

  let create n =
    let slots = slots_for n in
    { keys = Array.make slots empty; shift = 63 - log2 slots; count = 0 }

  (* The slot holding [k], or the empty slot that ends its probe run. *)
  let rec probe keys ~mask k i =
    let x = Array.unsafe_get keys i in
    if x = k || x = empty then i else probe keys ~mask k ((i + 1) land mask)

  let grow t =
    let old = t.keys in
    let keys = Array.make (2 * Array.length old) empty in
    let mask = Array.length keys - 1 and shift = t.shift - 1 in
    Array.iter
      (fun k ->
        if k <> empty then
          Array.unsafe_set keys (probe keys ~mask k (home k ~shift)) k)
      old;
    t.keys <- keys;
    t.shift <- shift

  let mem t k =
    check_key "Memsim.Addr.Index_set.mem" k;
    let keys = t.keys in
    let i = probe keys ~mask:(Array.length keys - 1) k (home k ~shift:t.shift) in
    Array.unsafe_get keys i = k

  let add t k =
    check_key "Memsim.Addr.Index_set.add" k;
    let keys = t.keys in
    let i = probe keys ~mask:(Array.length keys - 1) k (home k ~shift:t.shift) in
    if Array.unsafe_get keys i = k then false
    else begin
      Array.unsafe_set keys i k;
      t.count <- t.count + 1;
      if 2 * t.count > Array.length keys then grow t;
      true
    end

  let length t = t.count

  let clear t =
    Array.fill t.keys 0 (Array.length t.keys) empty;
    t.count <- 0
end

module Index_map = struct
  (* Slot [i] is the pair at [2i] (key) and [2i + 1] (value), so a hit
     finds the value beside its key. *)
  type t = {
    mutable cells : int array;
    mutable shift : int;  (* 63 - log2 slots *)
    mutable count : int;
  }

  let create n =
    let slots = slots_for n in
    { cells = Array.make (2 * slots) empty; shift = 63 - log2 slots; count = 0 }

  (* Like [Index_set.probe], over slots. *)
  let rec probe cells ~mask k i =
    let x = Array.unsafe_get cells (2 * i) in
    if x = k || x = empty then i else probe cells ~mask k ((i + 1) land mask)

  let[@inline] slot_mask t = (Array.length t.cells / 2) - 1

  let grow t =
    let old = t.cells in
    let cells = Array.make (2 * Array.length old) empty in
    let mask = (Array.length cells / 2) - 1 and shift = t.shift - 1 in
    for i = 0 to (Array.length old / 2) - 1 do
      let k = old.(2 * i) in
      if k <> empty then begin
        let j = probe cells ~mask k (home k ~shift) in
        cells.(2 * j) <- k;
        cells.((2 * j) + 1) <- old.((2 * i) + 1)
      end
    done;
    t.cells <- cells;
    t.shift <- shift

  let find t k ~default =
    check_key "Memsim.Addr.Index_map.find" k;
    let cells = t.cells in
    let i = probe cells ~mask:(slot_mask t) k (home k ~shift:t.shift) in
    if Array.unsafe_get cells (2 * i) = k then Array.unsafe_get cells ((2 * i) + 1)
    else default

  let replace t k v =
    check_key "Memsim.Addr.Index_map.replace" k;
    let cells = t.cells in
    let i = probe cells ~mask:(slot_mask t) k (home k ~shift:t.shift) in
    Array.unsafe_set cells ((2 * i) + 1) v;
    if Array.unsafe_get cells (2 * i) <> k then begin
      Array.unsafe_set cells (2 * i) k;
      t.count <- t.count + 1;
      if 4 * t.count > Array.length cells then grow t
    end

  let fold f t acc =
    let cells = t.cells in
    let acc = ref acc in
    for i = 0 to (Array.length cells / 2) - 1 do
      let k = cells.(2 * i) in
      if k <> empty then acc := f k cells.((2 * i) + 1) !acc
    done;
    !acc

  let length t = t.count

  let clear t =
    Array.fill t.cells 0 (Array.length t.cells) empty;
    t.count <- 0
end
