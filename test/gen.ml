(* Shared qcheck generators for the simulator test suites.

   Every suite used to grow its own copy of "random word trace",
   "random event stream" and "random cache shape"; they live here once,
   so the policy differential suites, the forest-versus-oracle suites
   and the trace-file round-trips all draw from the same distributions. *)

open QCheck

let source_of_int = function
  | 0 -> Memsim.Event.App
  | 1 -> Memsim.Event.Malloc
  | _ -> Memsim.Event.Free

(* ---- word traces (addr, size) ---------------------------------------- *)

(* Read-only word-grain traces over a small address window: dense
   enough to revisit blocks, wide enough to force evictions. *)
let trace_gen =
  Gen.(list_size (int_range 1 400) (pair (int_range 0 2047) (int_range 1 8)))

let trace_arb = make trace_gen

(* ---- full reference events ------------------------------------------- *)

(* One event with kind, source, and a byte range that may span several
   blocks. *)
let event_gen ?(addr_bound = 4096) ?(max_size = 70) () =
  Gen.(
    pair (pair bool (int_range 0 2))
      (pair (int_range 0 (addr_bound - 1)) (int_range 1 max_size))
    >|= fun ((write, src), (addr, size)) ->
    let source = source_of_int src in
    if write then Memsim.Event.write ~source addr size
    else Memsim.Event.read ~source addr size)

let events_gen ?(max_events = 400) ?addr_bound ?max_size () =
  Gen.(list_size (int_range 1 max_events) (event_gen ?addr_bound ?max_size ()))

(* Word-grain runs: after the first event, each event either starts
   afresh ([event_gen]) or touches a few bytes at the previous event's
   address with its own kind and source, so back-to-back references to
   one block (the forest's consecutive-repeat fast path) are common, as
   in real word-grain traces. *)
let run_events_gen ?(max_events = 400) () =
  Gen.(
    let repeat =
      frequency
        [ (2, return None);
          (3, triple bool (int_range 0 2) (int_range 1 8) >|= Option.some) ]
    in
    list_size (int_range 1 max_events) (pair (event_gen ()) repeat)
    >|= fun steps ->
    let rec go (prev : Memsim.Event.t option) = function
      | [] -> []
      | (fresh, repeat) :: rest ->
          let e =
            match (prev, repeat) with
            | Some p, Some (write, src, size) ->
                let source = source_of_int src in
                if write then Memsim.Event.write ~source p.addr size
                else Memsim.Event.read ~source p.addr size
            | _ -> fresh
          in
          e :: go (Some e) rest
    in
    go None steps)

(* ---- delivery -------------------------------------------------------- *)

(* Delivers [events] to [sink] as packed batches of [grain] events (the
   last batch may be shorter), reusing one batch as a producer does. *)
let deliver ?(grain = 7) (sink : Memsim.Sink.t) events =
  let b = Memsim.Event.Batch.create () in
  List.iter
    (fun e ->
      Memsim.Event.Batch.push_event b e;
      if Memsim.Event.Batch.length b = grain then begin
        sink b;
        Memsim.Event.Batch.clear b
      end)
    events;
  if Memsim.Event.Batch.length b > 0 then sink b

(* ---- cache shapes ---------------------------------------------------- *)

(* Every replacement policy, QLRU over its whole age square. *)
let policy_gen =
  Gen.(
    oneof
      [ return Cachesim.Policy.Lru;
        return Cachesim.Policy.Plru;
        pair (int_bound 3) (int_bound 3) >|= fun (h, m) ->
        Cachesim.Policy.Qlru { Cachesim.Policy.hit_age = h; insert_age = m } ])

(* A policy-under-test paired with the trace that drives it: small
   caches (a handful of sets and ways) so random traces actually thrash
   them, fed either uniform events or word-grain runs.  The config
   keeps the policy in its derived name for qcheck's failure output. *)
let policy_case_gen ~policy_gen =
  Gen.(
    policy_gen >>= fun policy ->
    oneofl [ 16; 32 ] >>= fun bb ->
    oneofl [ 128; 256; 512; 1024 ] >>= fun cap ->
    oneofl [ 1; 2; 4; 8 ] >>= fun assoc ->
    let assoc = min assoc (cap / bb) in
    let cfg =
      Cachesim.Config.make ~block_bytes:bb ~associativity:assoc ~policy cap
    in
    pair (return cfg)
      (oneof [ events_gen ~addr_bound:4096 ~max_size:70 (); run_events_gen () ]))
