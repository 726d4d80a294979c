(* Tests for the domain-pool scheduler and — the point of it all — the
   guarantee that parallelism never changes the science: every
   experiment renders byte-identically under jobs=1 and jobs=4. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool basics                                                        *)
(* ------------------------------------------------------------------ *)

let test_pool_map_basic () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int))
        "map = List.map" (List.map f xs)
        (Exec.Pool.map pool f xs))

let test_pool_map_empty_and_singleton () =
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Exec.Pool.map pool succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ] (Exec.Pool.map pool succ [ 7 ]))

let test_pool_jobs_clamped () =
  Exec.Pool.with_pool ~jobs:0 (fun pool ->
      check_int "jobs >= 1" 1 (Exec.Pool.jobs pool));
  Exec.Pool.with_pool ~jobs:(-3) (fun pool ->
      check_int "negative clamped" 1 (Exec.Pool.jobs pool));
  Exec.Pool.with_pool ~jobs:1_000_000 (fun pool ->
      check_bool "upper clamp" true (Exec.Pool.jobs pool <= 64))

let test_pool_exception_propagates () =
  (* The first failure by input position surfaces, like List.map. *)
  let f x = if x mod 3 = 0 then failwith (string_of_int x) else x in
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      check_bool "first raising element wins" true
        (match Exec.Pool.map pool f [ 1; 2; 9; 4; 6 ] with
        | exception Failure msg -> msg = "9"
        | _ -> false);
      (* The pool survives a failing batch. *)
      Alcotest.(check (list int))
        "pool still works" [ 2; 5 ]
        (Exec.Pool.map pool f [ 2; 5 ]))

let test_pool_map_after_shutdown_raises () =
  let pool = Exec.Pool.create ~jobs:4 in
  ignore (Exec.Pool.map pool succ [ 1; 2; 3 ]);
  Exec.Pool.shutdown pool;
  Exec.Pool.shutdown pool;
  (* idempotent *)
  check_bool "map after shutdown" true
    (match Exec.Pool.map pool succ [ 1 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_with_pool_returns_and_cleans_up () =
  check_int "returns f's value" 42
    (Exec.Pool.with_pool ~jobs:2 (fun _ -> 42));
  check_bool "shuts down on exception" true
    (match Exec.Pool.with_pool ~jobs:2 (fun _ -> failwith "body") with
    | exception Failure msg -> msg = "body"
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Pool properties                                                    *)
(* ------------------------------------------------------------------ *)

(* Cheap but not constant-time, so workers genuinely interleave. *)
let work x =
  let acc = ref (x land 0xFFFF) in
  for i = 1 to 200 + (x land 63) do
    acc := (!acc * 31) + i
  done;
  (x, !acc)

let prop_map_matches_list_map =
  QCheck.Test.make ~count:60
    ~name:"Pool.map preserves order and equals List.map"
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(0 -- 60) small_int))
    (fun (jobs, xs) ->
      Exec.Pool.with_pool ~jobs (fun pool ->
          Exec.Pool.map pool work xs = List.map work xs))

let prop_exceptions_propagate =
  (* Negative elements raise; the surfaced exception must name the
     first negative by position (exactly what List.map would raise,
     since it applies the function left to right). *)
  let f x = if x < 0 then failwith (string_of_int x) else x in
  QCheck.Test.make ~count:60 ~name:"Pool.map re-raises the first failure"
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(1 -- 40) (int_range (-20) 20)))
    (fun (jobs, xs) ->
      let expected =
        match List.find_opt (fun x -> x < 0) xs with
        | Some x -> Error (string_of_int x)
        | None -> Ok (List.map f xs)
      in
      let got =
        Exec.Pool.with_pool ~jobs (fun pool ->
            match Exec.Pool.map pool f xs with
            | ys -> Ok ys
            | exception Failure msg -> Error msg)
      in
      got = expected)

(* ------------------------------------------------------------------ *)
(* Futures and shutdown                                               *)
(* ------------------------------------------------------------------ *)

let test_async_await_value () =
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let futs = List.init 20 (fun i -> Exec.Pool.async pool (fun () -> i * i)) in
      Alcotest.(check (list int))
        "await returns the values"
        (List.init 20 (fun i -> i * i))
        (List.map Exec.Pool.await futs))

let test_async_await_exception () =
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let fut = Exec.Pool.async pool (fun () -> failwith "boom") in
      check_bool "await re-raises" true
        (match Exec.Pool.await fut with
        | exception Failure msg -> msg = "boom"
        | _ -> false);
      check_bool "await is repeatable" true
        (match Exec.Pool.await fut with
        | exception Failure msg -> msg = "boom"
        | _ -> false))

let test_async_inline_when_no_workers () =
  (* jobs=1 spawns no domains: async degrades to run-now, await still
     hands the value over. *)
  Exec.Pool.with_pool ~jobs:1 (fun pool ->
      let ran = ref false in
      let fut =
        Exec.Pool.async pool (fun () ->
            ran := true;
            41)
      in
      check_bool "ran inline before await" true !ran;
      check_int "await returns" 41 (Exec.Pool.await fut))

let test_async_after_shutdown_runs_inline () =
  let pool = Exec.Pool.create ~jobs:4 in
  Exec.Pool.shutdown pool;
  let fut = Exec.Pool.async pool (fun () -> 7) in
  check_int "async after shutdown degrades, not raises" 7
    (Exec.Pool.await fut)

let test_shutdown_drains_queued_work () =
  (* Futures scheduled before shutdown must complete: shutdown joins
     workers only after the queue drains. *)
  let pool = Exec.Pool.create ~jobs:2 in
  let futs =
    List.init 50 (fun i ->
        Exec.Pool.async pool (fun () ->
            Thread.yield ();
            i))
  in
  Exec.Pool.shutdown pool;
  Alcotest.(check (list int))
    "every pre-shutdown task completed"
    (List.init 50 Fun.id)
    (List.map Exec.Pool.await futs)

let test_concurrent_shutdown_safe () =
  (* The signal-handler-vs-exit-path race: many threads calling
     shutdown at once (one of them mid-drain) must all return without
     raising.  Repeated a few times to give the race room. *)
  for _ = 1 to 5 do
    let pool = Exec.Pool.create ~jobs:4 in
    ignore (Exec.Pool.async pool (fun () -> Thread.yield ()));
    let threads =
      List.init 4 (fun _ -> Thread.create Exec.Pool.shutdown pool)
    in
    Exec.Pool.shutdown pool;
    List.iter Thread.join threads
  done;
  check_bool "no shutdown call raised" true true

(* ------------------------------------------------------------------ *)
(* Differential determinism: jobs must never change the numbers       *)
(* ------------------------------------------------------------------ *)

let test_parallel_grid_bit_identical () =
  (* Render every experiment at small scale from a sequentially filled
     grid and from a 4-domain grid; every byte must match.  This is the
     contract that lets `loclab --jobs N` exist at all. *)
  let ctx1 = Core.Context.create ~scale:0.02 ~jobs:1 () in
  let ctx4 = Core.Context.create ~scale:0.02 ~jobs:4 () in
  Core.Experiment.warm_all ctx4;
  List.iter
    (fun id ->
      Alcotest.(check string)
        (id ^ " identical under jobs=1 and jobs=4")
        (Core.Experiment.run ctx1 id)
        (Core.Experiment.run ctx4 id))
    (Core.Experiment.ids ())

let test_prefetch_then_get_shares_data () =
  (* get after prefetch must hit the memo, not re-run. *)
  let runs = Core.Runs.create ~scale:0.02 ~jobs:4 () in
  Core.Runs.prefetch runs [ ("make", "bsd"); ("make", "bsd"); ("gawk", "bsd") ];
  let a = Core.Runs.get runs ~profile:"make" ~allocator:"bsd" in
  let b = Core.Runs.get runs ~profile:"make" ~allocator:"bsd" in
  check_bool "memoized from prefetch" true (a == b)

let test_prefetch_unknown_key_raises () =
  let runs = Core.Runs.create ~scale:0.02 ~jobs:4 () in
  check_bool "unknown profile raises Not_found" true
    (match Core.Runs.prefetch runs [ ("nope", "bsd") ] with
    | exception Not_found -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Relay: consumers on a helper domain see the direct stream           *)
(* ------------------------------------------------------------------ *)

module Relay = Exec.Relay

(* What one set of consumers made of a stream. *)
let consumers () =
  let checksum = Memsim.Sink.Checksum.create ()
  and counter = Memsim.Sink.Counter.create ()
  and multi = Cachesim.Multi.create Core.Runs.standard_configs in
  let sink =
    Memsim.Sink.fanout
      [ Memsim.Sink.Checksum.sink checksum;
        Memsim.Sink.Counter.sink counter;
        Cachesim.Multi.sink multi ]
  in
  let seen () =
    ( Memsim.Sink.Checksum.value checksum,
      ( Memsim.Sink.Counter.total counter,
        Memsim.Sink.Counter.reads counter,
        Memsim.Sink.Counter.bytes counter,
        Memsim.Sink.Counter.by_source counter Memsim.Event.Malloc ),
      Cachesim.Multi.results multi )
  in
  (sink, seen)

(* Delivers [events] in batches of the given sizes (cycled), reusing one
   batch as a producer does; sizes above a ring slot's capacity split
   across slots. *)
let deliver_split sizes (sink : Memsim.Sink.t) events =
  let b = Memsim.Event.Batch.create () in
  let sizes = Array.of_list sizes in
  let k = ref 0 in
  List.iter
    (fun e ->
      Memsim.Event.Batch.push_event b e;
      if Memsim.Event.Batch.length b >= sizes.(!k mod Array.length sizes) then begin
        sink b;
        Memsim.Event.Batch.clear b;
        incr k
      end)
    events;
  if Memsim.Event.Batch.length b > 0 then sink b

let relayed_stream path sizes events =
  let sink, seen = consumers () in
  Relay.with_path path (fun () ->
      Relay.with_sink sink (fun local -> deliver_split sizes local events));
  seen ()

let prop_relay_matches_direct =
  QCheck.Test.make ~count:40
    ~name:"relayed Checksum, Counter and Multi equal the direct ones"
    QCheck.(
      pair
        (make Gen.(list_size (int_range 1 6000) (Testkit.Gen.event_gen ())))
        (list_of_size Gen.(1 -- 6) (int_range 1 5000)))
    (fun (events, sizes) ->
      let sink, seen = consumers () in
      deliver_split sizes sink events;
      let direct = seen () in
      relayed_stream Relay.Relayed sizes events = direct
      && relayed_stream Relay.Inline sizes events = direct)

let some_events n =
  List.init n (fun i -> Memsim.Event.read (4096 + (8 * (i mod 997))) 8)

let test_relay_consumer_raises () =
  let batches = ref 0 in
  let remote (_ : Memsim.Event.Batch.t) =
    incr batches;
    if !batches = 3 then failwith "consumer"
  in
  let delivered = ref 0 in
  check_bool "the consumer's exception reaches the caller" true
    (match
       Relay.with_path Relay.Relayed (fun () ->
           Relay.with_sink remote (fun local ->
               List.iter
                 (fun chunk ->
                   incr delivered;
                   deliver_split [ 1000 ] local chunk)
                 (List.init 400 (fun _ -> some_events 1000))))
     with
    | exception Failure msg -> msg = "consumer"
    | () -> false);
  check_bool "the driver stopped early" true (!delivered < 400);
  let sink, seen = consumers () in
  deliver_split [ 300 ] sink (some_events 5000);
  check_bool "the next relay still works" true
    (relayed_stream Relay.Relayed [ 300 ] (some_events 5000) = seen ())

let test_relay_f_raises () =
  let events = some_events 7000 in
  let sink, seen = consumers () in
  check_bool "f's exception reaches the caller" true
    (match
       Relay.with_path Relay.Relayed (fun () ->
           Relay.with_sink sink (fun local ->
               deliver_split [ 700 ] local events;
               raise Exit))
     with
    | exception Exit -> true
    | () -> false);
  let direct, seen_direct = consumers () in
  deliver_split [ 700 ] direct events;
  check_bool "every batch delivered before the raise was consumed" true
    (seen () = seen_direct ());
  check_bool "the helper was released" true
    (relayed_stream Relay.Relayed [ 300 ] events = seen_direct ())

let test_relay_reuses_one_helper () =
  let caller = (Domain.self () :> int) in
  let domains = ref [] in
  for _ = 1 to 100 do
    let remote (_ : Memsim.Event.Batch.t) =
      let d = (Domain.self () :> int) in
      if not (List.mem d !domains) then domains := d :: !domains
    in
    Relay.with_path Relay.Relayed (fun () ->
        Relay.with_sink remote (fun local ->
            deliver_split [ 256 ] local (some_events 3000)))
  done;
  check_int "one helper domain served all 100 relays" 1 (List.length !domains);
  check_bool "and it is not the caller" true (not (List.mem caller !domains))

(* A helper left idle retires; the next relay gets a fresh one. *)
let test_relay_idle_helper_retires () =
  let ran_on () =
    let d = ref (-1) in
    Relay.with_path Relay.Relayed (fun () ->
        Relay.with_sink
          (fun _ -> d := (Domain.self () :> int))
          (fun local -> deliver_split [ 10 ] local (some_events 10)));
    !d
  in
  let first = ran_on () in
  Unix.sleepf 0.5;
  let second = ran_on () in
  check_bool "a new helper after an idle spell" true (first <> second);
  check_int "which is then reused" second (ran_on ())

(* Without a forced path, a relay runs inline while the pool's workers
   fill every core, and on a helper otherwise when a second core
   exists. *)
let test_relay_spare_core_rule () =
  let ran_on () =
    let d = ref (-1) in
    Relay.with_sink
      (fun _ -> d := (Domain.self () :> int))
      (fun local -> deliver_split [ 10 ] local (some_events 10));
    !d
  in
  let caller = (Domain.self () :> int) in
  Exec.Pool.with_pool ~jobs:(Exec.Pool.recommended_jobs ()) (fun _ ->
      check_int "inline beside a worker per core" caller (ran_on ()));
  check_bool "relayed iff a second core exists"
    (Domain.recommended_domain_count () > 1)
    (ran_on () <> caller)

(* A grid cell, and an ingested trace in every capture format, encode
   to the same bytes whether their consumers ran on a helper or inline:
   each reader delivers its own batch shapes across the relay. *)
let test_relay_runs_cells_identical () =
  let cell path allocator =
    Relay.with_path path (fun () ->
        Core.Artifact.encode
          (Core.Runs.get (Core.Runs.create ~scale:0.01 ()) ~profile:"espresso"
             ~allocator))
  in
  List.iter
    (fun allocator ->
      Alcotest.(check string)
        (allocator ^ ": relayed = inline")
        (cell Relay.Inline allocator) (cell Relay.Relayed allocator))
    (Allocators.Registry.keys ());
  let text =
    String.concat ""
      (List.init 5000 (fun i ->
           Printf.sprintf "%c 0x%x\n" (if i mod 3 = 0 then 'W' else 'R')
             (0x10000 + (((i * 7919) mod 4093) * 4))))
  in
  let driven format =
    Memsim.Trace.write format (fun sink ->
        ignore
          (Workload.Driver.run ~sink ~scale:0.01
             ~profile:(Workload.Programs.find "espresso") ~allocator:"bsd" ()))
  in
  let ingest path format data =
    Relay.with_path path (fun () ->
        Core.Artifact.encode
          (Core.Runs.ingest (Core.Runs.create ()) ~format ~data))
  in
  List.iter
    (fun (name, format, data) ->
      Alcotest.(check string)
        (name ^ " capture: relayed = inline")
        (ingest Relay.Inline format data)
        (ingest Relay.Relayed format data))
    [ ("text", Memsim.Trace.Source.Text, text);
      ("driven binary", Memsim.Trace.Source.Binary,
       driven Memsim.Trace.Source.Binary);
      ("driven csv", Memsim.Trace.Source.Csv, driven Memsim.Trace.Source.Csv) ]

let tc name f = Alcotest.test_case name `Quick f
let qt t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          tc "map basic" test_pool_map_basic;
          tc "map empty/singleton" test_pool_map_empty_and_singleton;
          tc "jobs clamped" test_pool_jobs_clamped;
          tc "exception propagates" test_pool_exception_propagates;
          tc "map after shutdown raises" test_pool_map_after_shutdown_raises;
          tc "with_pool returns and cleans up"
            test_with_pool_returns_and_cleans_up;
        ] );
      ( "pool-properties",
        [ qt prop_map_matches_list_map; qt prop_exceptions_propagate ] );
      ( "futures-shutdown",
        [
          tc "async/await values" test_async_await_value;
          tc "async/await exception" test_async_await_exception;
          tc "async inline when no workers" test_async_inline_when_no_workers;
          tc "async after shutdown runs inline"
            test_async_after_shutdown_runs_inline;
          tc "shutdown drains queued work" test_shutdown_drains_queued_work;
          tc "concurrent shutdown is safe" test_concurrent_shutdown_safe;
        ] );
      ( "relay",
        [
          qt prop_relay_matches_direct;
          tc "a raising consumer re-raises on the caller"
            test_relay_consumer_raises;
          tc "a raising f releases the helper" test_relay_f_raises;
          tc "100 relays spawn at most one domain" test_relay_reuses_one_helper;
          tc "an idle helper retires" test_relay_idle_helper_retires;
          tc "spare-core rule" test_relay_spare_core_rule;
          tc "Runs cells byte-identical relayed and inline"
            test_relay_runs_cells_identical;
        ] );
      ( "determinism",
        [
          tc "parallel grid bit-identical" test_parallel_grid_bit_identical;
          tc "prefetch feeds the memo" test_prefetch_then_get_shares_data;
          tc "prefetch unknown key raises" test_prefetch_unknown_key_raises;
        ] );
    ]
