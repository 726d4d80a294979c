type kind = Read | Write
type source = App | Malloc | Free
type t = { kind : kind; source : source; addr : Addr.t; size : int }

let read ?(source = App) addr size =
  assert (size >= 1);
  { kind = Read; source; addr; size }

let write ?(source = App) addr size =
  assert (size >= 1);
  { kind = Write; source; addr; size }

let kind_to_string = function Read -> "R" | Write -> "W"

let source_to_string = function
  | App -> "app"
  | Malloc -> "malloc"
  | Free -> "free"

let pp ppf t =
  Format.fprintf ppf "%s %s %a+%d" (kind_to_string t.kind)
    (source_to_string t.source) Addr.pp t.addr t.size

type event = t

module Packed = struct
  (* An event is two native ints: the address, verbatim, and a meta word
     [size lsl 3  lor  kind lsl 2  lor  source] (kind: 0 read / 1 write;
     source: 0 app / 1 malloc / 2 free).  The meta layout is exactly the
     word {!Sink.Checksum} mixes per event. *)

  let kind_bit = function Read -> 0 | Write -> 4
  let source_bits = function App -> 0 | Malloc -> 1 | Free -> 2

  let meta ~kind ~source ~size =
    (size lsl 3) lor kind_bit kind lor source_bits source

  let meta_of_event e = meta ~kind:e.kind ~source:e.source ~size:e.size
  let kind m = if m land 4 = 0 then Read else Write
  let source m = match m land 3 with 0 -> App | 1 -> Malloc | _ -> Free
  let size m = m lsr 3

  (* Fused kind x source counter index [ki*3 + si], the layout the
     cache simulators and {!Sink.Counter} tally into. *)
  let ks m = (((m lsr 2) land 1) * 3) + (m land 3)

  let to_event ~addr ~meta =
    { kind = kind meta; source = source meta; addr; size = size meta }
end

module Batch = struct
  (* Struct-of-arrays event buffer: parallel preallocated [int array]s
     (native unboxed ints in OCaml) instead of an array of boxed
     records.  [addrs.(i)]/[metas.(i)] for i < len are the events, in
     emission order; slots beyond [len] are garbage. *)
  type t = {
    mutable addrs : int array;
    mutable metas : int array;
    mutable len : int;
  }

  let default_capacity = 256

  let create ?(capacity = default_capacity) () =
    if capacity < 1 then invalid_arg "Event.Batch.create: capacity must be >= 1";
    { addrs = Array.make capacity 0; metas = Array.make capacity 0; len = 0 }

  let capacity b = Array.length b.addrs
  let length b = b.len
  let clear b = b.len <- 0

  let grow b needed =
    let cap = Array.length b.addrs in
    let cap' =
      let rec go c = if c >= needed then c else go (2 * c) in
      go (2 * cap)
    in
    let addrs = Array.make cap' 0 and metas = Array.make cap' 0 in
    Array.blit b.addrs 0 addrs 0 b.len;
    Array.blit b.metas 0 metas 0 b.len;
    b.addrs <- addrs;
    b.metas <- metas

  let push b ~addr ~meta =
    if b.len = Array.length b.addrs then grow b (b.len + 1);
    Array.unsafe_set b.addrs b.len addr;
    Array.unsafe_set b.metas b.len meta;
    b.len <- b.len + 1

  let push_event b e = push b ~addr:e.addr ~meta:(Packed.meta_of_event e)

  let append b src =
    let n = src.len in
    if b.len + n > Array.length b.addrs then grow b (b.len + n);
    Array.blit src.addrs 0 b.addrs b.len n;
    Array.blit src.metas 0 b.metas b.len n;
    b.len <- b.len + n

  let get b i =
    if i < 0 || i >= b.len then invalid_arg "Event.Batch.get: out of bounds";
    Packed.to_event ~addr:(Array.unsafe_get b.addrs i)
      ~meta:(Array.unsafe_get b.metas i)

  let of_events buf len =
    let b = create ~capacity:(Int.max 1 len) () in
    for i = 0 to len - 1 do
      push_event b buf.(i)
    done;
    b

  let to_list b = List.init b.len (get b)
end
