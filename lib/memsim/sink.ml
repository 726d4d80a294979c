type t = Event.Batch.t -> unit

let null : t = ignore

let fanout sinks : t =
  match sinks with
  | [] -> null
  | [ s ] -> s
  | [ a; b ] ->
      fun batch ->
        a batch;
        b batch
  | sinks ->
      let arr = Array.of_list sinks in
      fun batch ->
        for i = 0 to Array.length arr - 1 do
          arr.(i) batch
        done

module Counter = struct
  (* Event tallies live in a 6-cell array indexed [ki*3 + si] (ki: 0
     read / 1 write; si: 0 app / 1 malloc / 2 free): classifying an
     event is one read-modify-write on the hot path, totals and
     marginals are summed on demand. *)
  type counter = {
    cells : int array;
    mutable bytes : int;
  }

  let create () = { cells = Array.make 6 0; bytes = 0 }

  (* Size and the fused counter index both come straight out of the
     meta word — no record is ever materialised. *)
  let count_meta c meta =
    c.bytes <- c.bytes + (meta lsr 3);
    let ks = Event.Packed.ks meta in
    Array.unsafe_set c.cells ks (Array.unsafe_get c.cells ks + 1)

  let sink c (b : Event.Batch.t) =
    let metas = b.Event.Batch.metas in
    for i = 0 to b.Event.Batch.len - 1 do
      count_meta c (Array.unsafe_get metas i)
    done

  let reads c = c.cells.(0) + c.cells.(1) + c.cells.(2)
  let writes c = c.cells.(3) + c.cells.(4) + c.cells.(5)
  let total c = reads c + writes c
  let bytes c = c.bytes

  let by_source c = function
    | Event.App -> c.cells.(0) + c.cells.(3)
    | Event.Malloc -> c.cells.(1) + c.cells.(4)
    | Event.Free -> c.cells.(2) + c.cells.(5)

  let reset c =
    Array.fill c.cells 0 6 0;
    c.bytes <- 0
end

module Checksum = struct
  type checksum = { mutable h : int }

  (* FNV-1a over the native int width: wrap-around multiplication is
     deterministic for a given word size, and every simulation in this
     repo runs on 64-bit OCaml (the address space itself needs it). *)
  let fnv_prime = 0x100000001B3
  let fnv_basis = 0x11C9DC5

  let create () = { h = fnv_basis }

  let mix c x = c.h <- (c.h lxor x) * fnv_prime

  let sink c (b : Event.Batch.t) =
    let addrs = b.Event.Batch.addrs and metas = b.Event.Batch.metas in
    for i = 0 to b.Event.Batch.len - 1 do
      mix c (Array.unsafe_get addrs i);
      mix c (Array.unsafe_get metas i)
    done

  (* Mask the sign bit away so the value prints, compares and encodes
     as a plain non-negative int everywhere. *)
  let value c = c.h land max_int
end
