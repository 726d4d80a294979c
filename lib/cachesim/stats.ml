type t = {
  mutable accesses : int;
  mutable misses : int;
  mutable read_accesses : int;
  mutable read_misses : int;
  mutable write_accesses : int;
  mutable write_misses : int;
  mutable cold_misses : int;
  mutable writebacks : int;
  mutable app_accesses : int;
  mutable app_misses : int;
  mutable malloc_accesses : int;
  mutable malloc_misses : int;
  mutable free_accesses : int;
  mutable free_misses : int;
}

let create () =
  { accesses = 0; misses = 0; read_accesses = 0; read_misses = 0;
    write_accesses = 0; write_misses = 0; cold_misses = 0; writebacks = 0;
    app_accesses = 0;
    app_misses = 0; malloc_accesses = 0; malloc_misses = 0; free_accesses = 0;
    free_misses = 0 }

let hits t = t.accesses - t.misses
let rate ~misses ~accesses =
  if accesses = 0 then 0. else float misses /. float accesses

let miss_rate t = rate ~misses:t.misses ~accesses:t.accesses
let miss_rate_pct t = 100. *. miss_rate t

let source_miss_rate t source =
  let accesses, misses =
    match (source : Memsim.Event.source) with
    | App -> (t.app_accesses, t.app_misses)
    | Malloc -> (t.malloc_accesses, t.malloc_misses)
    | Free -> (t.free_accesses, t.free_misses)
  in
  rate ~misses ~accesses

let record t ~kind ~source ~miss ~cold =
  t.accesses <- t.accesses + 1;
  if miss then t.misses <- t.misses + 1;
  if cold then t.cold_misses <- t.cold_misses + 1;
  (match (kind : Memsim.Event.kind) with
  | Read ->
      t.read_accesses <- t.read_accesses + 1;
      if miss then t.read_misses <- t.read_misses + 1
  | Write ->
      t.write_accesses <- t.write_accesses + 1;
      if miss then t.write_misses <- t.write_misses + 1);
  match (source : Memsim.Event.source) with
  | App ->
      t.app_accesses <- t.app_accesses + 1;
      if miss then t.app_misses <- t.app_misses + 1
  | Malloc ->
      t.malloc_accesses <- t.malloc_accesses + 1;
      if miss then t.malloc_misses <- t.malloc_misses + 1
  | Free ->
      t.free_accesses <- t.free_accesses + 1;
      if miss then t.free_misses <- t.free_misses + 1

let record_writeback t = t.writebacks <- t.writebacks + 1
let memory_traffic_blocks t = t.misses + t.writebacks

let merge a b =
  { accesses = a.accesses + b.accesses;
    misses = a.misses + b.misses;
    read_accesses = a.read_accesses + b.read_accesses;
    read_misses = a.read_misses + b.read_misses;
    write_accesses = a.write_accesses + b.write_accesses;
    write_misses = a.write_misses + b.write_misses;
    cold_misses = a.cold_misses + b.cold_misses;
    writebacks = a.writebacks + b.writebacks;
    app_accesses = a.app_accesses + b.app_accesses;
    app_misses = a.app_misses + b.app_misses;
    malloc_accesses = a.malloc_accesses + b.malloc_accesses;
    malloc_misses = a.malloc_misses + b.malloc_misses;
    free_accesses = a.free_accesses + b.free_accesses;
    free_misses = a.free_misses + b.free_misses }

let pp ppf t =
  Format.fprintf ppf
    "accesses=%d misses=%d (%.3f%%) cold=%d reads=%d/%d writes=%d/%d"
    t.accesses t.misses (miss_rate_pct t) t.cold_misses t.read_misses
    t.read_accesses t.write_misses t.write_accesses
