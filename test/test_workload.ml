(* Tests for the workload library: PRNG, distributions, profiles and the
   trace-generating driver. *)

open Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done

let test_rng_copy_diverges_from_original () =
  let a = Rng.create 7 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  check_bool "copy continues identically" true
    (Rng.next_int64 a = Rng.next_int64 b)

(* Reference SplitMix64 outputs for seed 0: the generator is pinned bit
   for bit, so every synthesised trace is too. *)
let test_rng_known_answer () =
  let rng = Rng.create 0 in
  List.iter
    (fun expected ->
      Alcotest.(check int64) "SplitMix64 seed 0" expected (Rng.next_int64 rng))
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ];
  (* [float] and [bool] draws, bit for bit: the workloads' probabilities
     and lifetimes are decided by them. *)
  let rng = Rng.create 0 in
  List.iter
    (fun expected ->
      Alcotest.(check int64) "float bits, seed 0" expected
        (Int64.bits_of_float (Rng.float rng)))
    [ 0x3fec4415072f63b9L; 0x3fdb9e279aa86e58L; 0x3f9b117462002500L;
      0x3fef1177150e4990L; 0x3fbb39896a51a870L; 0x3fd4f2e7c31d1fa8L;
      0x3fc6414d5f0fa298L; 0x3fe8b082675922d5L ];
  let rng = Rng.create 1 in
  Alcotest.(check string) "bool 0.3, seed 1"
    "0000000010000001000011011100100000100000001000010001000101000100"
    (String.init 64 (fun _ -> if Rng.bool rng 0.3 then '1' else '0'))

let test_rng_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.float rng in
    check_bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_rng_bool_probability () =
  let rng = Rng.create 3 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  check_bool "about 30%" true (p > 0.27 && p < 0.33)

let test_rng_exponential_mean () =
  let rng = Rng.create 4 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:50.
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 50" true (mean > 46. && mean < 54.)

let test_rng_geometric_mean () =
  let rng = Rng.create 5 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng 0.25
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* mean (1-p)/p = 3 *)
  check_bool "mean near 3" true (mean > 2.7 && mean < 3.3)

let prop_rng_different_seeds_differ =
  QCheck.Test.make ~name:"different seeds give different streams" ~count:50
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      QCheck.assume (s1 <> s2);
      let a = Rng.create s1 and b = Rng.create s2 in
      (* At least one of the first 8 draws differs. *)
      List.exists
        (fun _ -> Rng.next_int64 a <> Rng.next_int64 b)
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])

(* ------------------------------------------------------------------ *)
(* Dist                                                               *)
(* ------------------------------------------------------------------ *)

let test_dist_single_value () =
  let d = Dist.create [ (24, 1.) ] in
  let rng = Rng.create 1 in
  for _ = 1 to 50 do
    check_int "always 24" 24 (Dist.sample d rng)
  done;
  Alcotest.(check (float 1e-9)) "mean" 24. (Dist.mean d)

let test_dist_weights_respected () =
  let d = Dist.create [ (8, 9.); (800, 1.) ] in
  let rng = Rng.create 2 in
  let n = 20_000 in
  let small = ref 0 in
  for _ = 1 to n do
    if Dist.sample d rng = 8 then incr small
  done;
  let p = float_of_int !small /. float_of_int n in
  check_bool "about 90% small" true (p > 0.87 && p < 0.93)

let test_dist_merges_duplicates () =
  let d = Dist.create [ (8, 1.); (8, 1.); (16, 2.) ] in
  Alcotest.(check (list int)) "support" [ 8; 16 ] (Dist.support d);
  Alcotest.(check (float 1e-9)) "weight of 8" 0.5 (Dist.weight_of d 8)

let test_dist_rejects_bad () =
  check_bool "empty" true
    (match Dist.create [] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "non-positive weight" true
    (match Dist.create [ (8, 0.) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_dist_histogram () =
  let d = Dist.create [ (8, 3.); (24, 1.) ] in
  let h = Dist.to_histogram d ~scale:1000 in
  check_int "two buckets" 2 (List.length h);
  check_int "8 gets 750" 750 (List.assoc 8 h);
  check_int "24 gets 250" 250 (List.assoc 24 h)

let test_dist_chi_squared () =
  (* Goodness of fit of the sampler against the declared weights on a
     4-bucket distribution: chi-squared with 3 dof; 16.27 is the 0.1%
     critical value, so a correct sampler fails ~1 run in 1000 (and the
     PRNG is deterministic, so in practice never). *)
  let d = Dist.create [ (8, 4.); (16, 3.); (24, 2.); (32, 1.) ] in
  let rng = Rng.create 4242 in
  let n = 100_000 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to n do
    let v = Dist.sample d rng in
    Hashtbl.replace counts v
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let chi2 =
    List.fold_left
      (fun acc (v, p) ->
        let expected = p *. float_of_int n in
        let observed =
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts v))
        in
        acc +. (((observed -. expected) ** 2.) /. expected))
      0.
      [ (8, 0.4); (16, 0.3); (24, 0.2); (32, 0.1) ]
  in
  check_bool
    (Printf.sprintf "chi2 %.2f below critical 16.27" chi2)
    true (chi2 < 16.27)

let prop_dist_samples_in_support =
  QCheck.Test.make ~name:"samples always in support" ~count:100
    QCheck.(small_list (pair (int_range 1 512) (float_range 0.1 10.)))
    (fun pairs ->
      QCheck.assume (pairs <> []);
      let d = Dist.create pairs in
      let support = Dist.support d in
      let rng = Rng.create 77 in
      List.for_all
        (fun _ -> List.mem (Dist.sample d rng) support)
        (List.init 50 Fun.id))

(* ------------------------------------------------------------------ *)
(* Profiles                                                           *)
(* ------------------------------------------------------------------ *)

let test_profiles_validate () =
  List.iter Profile.validate Programs.all;
  check_int "seven profiles" 7 (List.length Programs.all)

let test_profiles_find () =
  check_bool "find gs-large" true
    ((Programs.find "gs-large").Profile.label = "GS-Large");
  check_bool "unknown raises" true
    (match Programs.find "nope" with
    | exception Not_found -> true
    | _ -> false)

let test_profiles_scaled_steps () =
  let p = Programs.gs_large in
  check_int "full" p.Profile.steps (Profile.scaled_steps p ~scale:1.0);
  check_int "half" (p.Profile.steps / 2) (Profile.scaled_steps p ~scale:0.5);
  check_int "floor at 100" 100 (Profile.scaled_steps p ~scale:0.000001)

let test_gs_inputs_ordered () =
  match Programs.gs_inputs with
  | [ s; m; l ] ->
      check_bool "small < medium" true (s.Profile.steps < m.Profile.steps);
      check_bool "medium < large" true (m.Profile.steps < l.Profile.steps);
      check_bool "retained ordered" true
        (s.Profile.retained_bytes < m.Profile.retained_bytes
        && m.Profile.retained_bytes < l.Profile.retained_bytes)
  | _ -> Alcotest.fail "expected three GS inputs"

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let small_run ?(allocator = "bsd") ?(profile = Programs.espresso) ?sink () =
  Driver.run ?sink ~scale:0.02 ~profile ~allocator ()

let test_driver_deterministic () =
  let r1 = small_run () and r2 = small_run () in
  check_int "same instructions" r1.Driver.instructions r2.Driver.instructions;
  check_int "same refs" r1.Driver.data_refs r2.Driver.data_refs;
  check_int "same allocs" r1.Driver.alloc_stats.Allocators.Alloc_stats.malloc_calls
    r2.Driver.alloc_stats.Allocators.Alloc_stats.malloc_calls

let test_driver_counts_consistent () =
  let r = small_run () in
  check_bool "did some work" true (r.Driver.instructions > 10_000);
  check_int "instr total is sum of phases"
    r.Driver.instructions
    (r.Driver.app_instructions + r.Driver.malloc_instructions
   + r.Driver.free_instructions);
  check_int "refs split by source" r.Driver.data_refs
    (r.Driver.app_refs + r.Driver.allocator_refs);
  check_bool "fraction in (0,1)" true
    (Driver.allocator_fraction r > 0. && Driver.allocator_fraction r < 1.)

let test_driver_sink_sees_everything () =
  let c = Memsim.Sink.Counter.create () in
  let r = small_run ~sink:(Memsim.Sink.Counter.sink c) () in
  check_int "sink count matches result" r.Driver.data_refs
    (Memsim.Sink.Counter.total c)

let test_driver_ptc_frees_nothing () =
  let r = small_run ~profile:Programs.ptc ~allocator:"firstfit" () in
  check_int "no frees" 0 r.Driver.alloc_stats.Allocators.Alloc_stats.free_calls;
  check_bool "allocates" true
    (r.Driver.alloc_stats.Allocators.Alloc_stats.malloc_calls > 100)

let test_driver_espresso_frees_most () =
  let r =
    Driver.run ~scale:0.1 ~profile:Programs.espresso ~allocator:"bsd" ()
  in
  let st = r.Driver.alloc_stats in
  let freed =
    float_of_int st.Allocators.Alloc_stats.free_calls
    /. float_of_int st.Allocators.Alloc_stats.malloc_calls
  in
  check_bool "frees most objects" true (freed > 0.85)

let test_driver_gawk_heap_small () =
  let r = Driver.run ~scale:0.3 ~profile:Programs.gawk ~allocator:"quickfit" () in
  (* Gawk's live heap stays tiny (paper: 60 KB at full scale). *)
  check_bool "small live heap" true (r.Driver.max_live_bytes < 120_000)

let test_driver_gs_heap_grows_with_scale () =
  let r1 = Driver.run ~scale:0.05 ~profile:Programs.gs_large ~allocator:"bsd" () in
  let r2 = Driver.run ~scale:0.2 ~profile:Programs.gs_large ~allocator:"bsd" () in
  check_bool "bigger scale, bigger heap" true
    (r2.Driver.max_live_bytes > 2 * r1.Driver.max_live_bytes)

let test_driver_same_workload_across_allocators () =
  (* The op stream is allocator-independent: same allocs/frees/sizes. *)
  let keys = [ "firstfit"; "bsd"; "gnu-local"; "quickfit" ] in
  let runs = List.map (fun k -> small_run ~allocator:k ()) keys in
  match runs with
  | first :: rest ->
      List.iter
        (fun r ->
          check_int "same mallocs"
            first.Driver.alloc_stats.Allocators.Alloc_stats.malloc_calls
            r.Driver.alloc_stats.Allocators.Alloc_stats.malloc_calls;
          check_int "same requested bytes"
            first.Driver.alloc_stats.Allocators.Alloc_stats.bytes_requested
            r.Driver.alloc_stats.Allocators.Alloc_stats.bytes_requested)
        rest
  | [] -> assert false

let test_driver_run_with_custom_allocator () =
  let profile = Programs.espresso in
  let histogram = Dist.to_histogram profile.Profile.size_dist ~scale:10_000 in
  let heap = Allocators.Heap.create () in
  let custom = Allocators.Custom.create_for ~histogram heap in
  let alloc = Allocators.Custom.allocator custom in
  let r = Driver.run_with ~scale:0.02 ~profile ~heap ~alloc () in
  check_bool "ran" true (r.Driver.instructions > 0);
  check_bool "low fragmentation on its training workload" true
    (Allocators.Alloc_stats.internal_fragmentation r.Driver.alloc_stats < 0.12)

let test_driver_reallocs_happen () =
  let r = Driver.run ~scale:0.1 ~profile:Programs.gawk ~allocator:"bsd" () in
  let st = r.Driver.alloc_stats in
  check_bool "reallocs exercised" true (st.Allocators.Alloc_stats.realloc_calls > 10);
  check_bool "some reallocs moved" true
    (st.Allocators.Alloc_stats.realloc_moves > 0);
  (* PTC never reallocs. *)
  let r = Driver.run ~scale:0.05 ~profile:Programs.ptc ~allocator:"bsd" () in
  check_int "ptc reallocs" 0
    r.Driver.alloc_stats.Allocators.Alloc_stats.realloc_calls

let test_driver_allocator_integrity_after_run () =
  (* Full invariant check after a real workload, for every allocator. *)
  List.iter
    (fun key ->
      let heap = Allocators.Heap.create () in
      let alloc = Allocators.Registry.build key heap in
      let _r =
        Driver.run_with ~scale:0.03 ~profile:Programs.gs_large ~heap ~alloc ()
      in
      Allocators.Allocator.check alloc)
    (Allocators.Registry.keys ())

let test_driver_allocation_budget () =
  (* A run's simulated memory must cost the pages it touches, not its
     highest address: gs-large's heap sits above the 4 MiB static
     region, so an address-sized backing store would allocate millions
     of major words for this tiny run. *)
  let before = (Gc.quick_stat ()).Gc.major_words in
  let _r =
    Driver.run ~scale:0.002 ~profile:Programs.gs_large ~allocator:"quickfit" ()
  in
  let grown = (Gc.quick_stat ()).Gc.major_words -. before in
  check_bool
    (Printf.sprintf "major words grew by %.0f, budget 256K" grown)
    true (grown < 262_144.)

let test_trace_replay_equivalence () =
  (* Replaying a recorded workload trace must produce exactly the cache
     statistics of live simulation — the stored-trace and
     execution-driven modes are interchangeable. *)
  let profile = Programs.make_prog in
  let live_cache =
    Cachesim.Forest.create [ Cachesim.Config.make (16 * 1024) ]
  in
  let path = Filename.temp_file "loclab_equiv" ".trace" in
  let r =
    Out_channel.with_open_bin path @@ fun oc ->
    Memsim.Trace.record ~format:Memsim.Trace.Source.Binary oc (fun file_sink ->
        Driver.run
          ~sink:
            (Memsim.Sink.fanout
               [ Cachesim.Forest.sink live_cache; file_sink ])
          ~scale:0.05 ~profile ~allocator:"gnu-local" ())
  in
  let replay_cache =
    Cachesim.Forest.create [ Cachesim.Config.make (16 * 1024) ]
  in
  let n =
    Memsim.Trace.read Memsim.Trace.Source.Binary (Memsim.Trace.slurp path)
      (Cachesim.Forest.sink replay_cache)
  in
  Sys.remove path;
  check_int "event counts agree" r.Driver.data_refs n;
  let a = Cachesim.Forest.member_stats live_cache 0
  and b = Cachesim.Forest.member_stats replay_cache 0 in
  check_int "accesses agree" a.Cachesim.Stats.accesses b.Cachesim.Stats.accesses;
  check_int "misses agree" a.Cachesim.Stats.misses b.Cachesim.Stats.misses;
  check_int "writebacks agree" a.Cachesim.Stats.writebacks
    b.Cachesim.Stats.writebacks;
  check_int "malloc misses agree" a.Cachesim.Stats.malloc_misses
    b.Cachesim.Stats.malloc_misses

let test_trace_record_matches_write () =
  (* Streaming a run to a file in chunks writes the bytes the in-memory
     encoder returns for the same run, in every format. *)
  let run sink =
    ignore
      (Driver.run ~sink ~scale:0.05 ~profile:Programs.make_prog
         ~allocator:"gnu-local" ())
  in
  List.iter
    (fun (name, format) ->
      let path = Filename.temp_file "loclab_record" ".trace" in
      Out_channel.with_open_bin path (fun oc ->
          Memsim.Trace.record ~format oc run);
      let streamed = Memsim.Trace.slurp path in
      Sys.remove path;
      let written = Memsim.Trace.write format run in
      check_bool (name ^ " capture spans several chunks") true
        (String.length written > 200_000);
      check_bool (name ^ ": record and write agree") true (streamed = written))
    Memsim.Trace.Source.all_formats

(* ------------------------------------------------------------------ *)
(* Schedule and player                                                *)
(* ------------------------------------------------------------------ *)

let mix h x = (h * 1_000_003) lxor x

let digest_chunk h s =
  let ops = Schedule.ops s in
  let h = ref h in
  for i = 0 to Schedule.length s - 1 do
    h := mix !h ops.(i)
  done;
  !h

(* The generator alone: no heap, allocator or memory. *)
let schedule_digest ~profile ~scale =
  let s = Schedule.create ~profile ~scale in
  let h = ref 0 in
  while Schedule.next s do
    h := digest_chunk !h s
  done;
  !h

(* Fold over the ops of a chunk, one [f ops at] per op. *)
let iter_ops s f =
  let ops = Schedule.ops s in
  let i = ref 0 in
  while !i < Schedule.length s do
    f ops !i;
    i := !i + Schedule.Op.width ops.(!i)
  done

(* Plays [profile] at [scale] against the allocator [build] makes,
   calling [applied] on each chunk once the player has applied it.
   Returns the heap, the allocator and the heap's per-source counter. *)
let play ~profile ~scale ~build applied =
  let counter = Memsim.Sink.Counter.create () in
  let heap = Allocators.Heap.create ~sink:(Memsim.Sink.Counter.sink counter) () in
  let alloc = build heap in
  let s = Schedule.create ~profile ~scale in
  let player = Player.create ~profile ~heap ~alloc in
  while Schedule.next s do
    Player.play player s;
    applied s
  done;
  Allocators.Heap.flush_trace heap;
  (heap, alloc, counter)

(* Every registry allocator, plus the profile-trained custom allocator
   a grid cell uses. *)
let allocators profile =
  List.map
    (fun (spec : Allocators.Registry.spec) -> (spec.key, spec.build))
    Allocators.Registry.all
  @ [ ("trained custom", Driver.build_allocator ~profile ~allocator:"custom") ]

let test_schedule_same_ops_under_every_allocator () =
  List.iter
    (fun profile ->
      List.iter
        (fun scale ->
          let expected = schedule_digest ~profile ~scale in
          let app = ref None in
          List.iter
            (fun (key, build) ->
              let name =
                Printf.sprintf "%s at %g under %s" profile.Profile.key scale key
              in
              let h = ref 0 and mallocs = ref 0 and frees = ref 0
              and reallocs = ref 0 and requested = ref 0 in
              (* A growing realloc requests its growth. *)
              let sizes = Hashtbl.create 1024 in
              let request ~grown id size =
                let old = if grown then Hashtbl.find sizes id else 0 in
                requested := !requested + Int.max 0 (size - old);
                Hashtbl.replace sizes id size
              in
              let heap, alloc, counter =
                play ~profile ~scale ~build (fun s ->
                    h := digest_chunk !h s;
                    iter_ops s (fun ops at ->
                        let tag = ops.(at) in
                        if tag = Schedule.Op.malloc then begin
                          incr mallocs;
                          request ~grown:false ops.(at + 1) ops.(at + 2)
                        end
                        else if tag = Schedule.Op.free then incr frees
                        else if tag = Schedule.Op.realloc then begin
                          incr reallocs;
                          request ~grown:true ops.(at + 1) ops.(at + 2)
                        end))
              in
              check_int (name ^ ": applied ops digest") expected !h;
              let st = Allocators.Allocator.stats alloc in
              check_int (name ^ ": mallocs") !mallocs
                st.Allocators.Alloc_stats.malloc_calls;
              check_int (name ^ ": frees") !frees
                st.Allocators.Alloc_stats.free_calls;
              check_int (name ^ ": reallocs") !reallocs
                st.Allocators.Alloc_stats.realloc_calls;
              check_int (name ^ ": bytes requested") !requested
                st.Allocators.Alloc_stats.bytes_requested;
              (* The application's side of the run is the schedule's. *)
              let seen =
                ( Allocators.Cost.app (Allocators.Heap.cost heap),
                  Memsim.Sink.Counter.by_source counter Memsim.Event.App )
              in
              match !app with
              | None -> app := Some seen
              | Some first ->
                  check_int (name ^ ": app instructions") (fst first) (fst seen);
                  check_int (name ^ ": app refs") (snd first) (snd seen))
            (allocators profile))
        [ 0.005; 0.02 ])
    Programs.all

(* The trained table is the one a trainer fed the mallocs a player
   applied would train, under any registry allocator. *)
let test_schedule_training_matches_played_mallocs () =
  List.iter
    (fun profile ->
      let expected = Driver.train_predictor ~profile () in
      List.iter
        (fun (key, build) ->
          let trainer =
            Allocators.Predictive.Trainer.create
              ~sites:profile.Profile.site_count
          in
          let observed = ref 0 in
          let _heap, alloc, _counter =
            play ~profile ~scale:Driver.training_scale ~build (fun s ->
                iter_ops s (fun ops at ->
                    if ops.(at) = Schedule.Op.malloc then begin
                      incr observed;
                      Allocators.Predictive.Trainer.observe trainer
                        ~site:ops.(at + 3) ~long:(ops.(at + 4) = 1)
                    end))
          in
          let name = profile.Profile.key ^ " trained under " ^ key in
          check_int (name ^ ": every malloc observed")
            (Allocators.Allocator.stats alloc).Allocators.Alloc_stats.malloc_calls
            !observed;
          check_bool name true
            (Allocators.Predictive.Trainer.finish trainer = expected))
        (allocators profile))
    [ Programs.gawk; Programs.espresso ]

(* Chunks are reused and every table grows by doubling: generating a
   schedule allocates in proportion to its objects, not its ops. *)
let test_schedule_allocation_budget () =
  let s = Schedule.create ~profile:Programs.gs_large ~scale:0.1 in
  (* The counters take in the minor heap's words when it is collected,
     so it is emptied on both sides of the measured loop. *)
  let words () =
    Gc.minor ();
    Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)
  in
  let before = words () in
  let ops = ref 0 and objects = ref 0 in
  while Schedule.next s do
    iter_ops s (fun o at ->
        incr ops;
        if o.(at) = Schedule.Op.malloc then incr objects)
  done;
  let words = words () -. before in
  let budget = float_of_int (32 * !objects) in
  check_bool
    (Printf.sprintf "%.0f words for %d objects and %d ops, budget %.0f"
       words !objects !ops budget)
    true (words < budget);
  (* One word per op would break the budget. *)
  check_bool "ops outnumber the budget's words" true
    (float_of_int !ops > budget)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests
let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "workload"
    [
      ( "rng",
        [
          tc "deterministic" test_rng_deterministic;
          tc "copy" test_rng_copy_diverges_from_original;
          tc "known answer" test_rng_known_answer;
          tc "int bounds" test_rng_int_bounds;
          tc "float bounds" test_rng_float_bounds;
          tc "bool probability" test_rng_bool_probability;
          tc "exponential mean" test_rng_exponential_mean;
          tc "geometric mean" test_rng_geometric_mean;
        ]
        @ qsuite [ prop_rng_different_seeds_differ ] );
      ( "dist",
        [
          tc "single value" test_dist_single_value;
          tc "weights respected" test_dist_weights_respected;
          tc "merges duplicates" test_dist_merges_duplicates;
          tc "rejects bad" test_dist_rejects_bad;
          tc "histogram" test_dist_histogram;
          tc "chi-squared fit" test_dist_chi_squared;
        ]
        @ qsuite [ prop_dist_samples_in_support ] );
      ( "profiles",
        [
          tc "validate" test_profiles_validate;
          tc "find" test_profiles_find;
          tc "scaled steps" test_profiles_scaled_steps;
          tc "gs inputs ordered" test_gs_inputs_ordered;
        ] );
      ( "driver",
        [
          tc "deterministic" test_driver_deterministic;
          tc "counts consistent" test_driver_counts_consistent;
          tc "sink sees everything" test_driver_sink_sees_everything;
          tc "ptc frees nothing" test_driver_ptc_frees_nothing;
          tc "espresso frees most" test_driver_espresso_frees_most;
          tc "gawk heap small" test_driver_gawk_heap_small;
          tc "gs heap grows with scale" test_driver_gs_heap_grows_with_scale;
          tc "same workload across allocators"
            test_driver_same_workload_across_allocators;
          tc "run_with custom allocator" test_driver_run_with_custom_allocator;
          tc "reallocs happen" test_driver_reallocs_happen;
          tc "allocator integrity after run"
            test_driver_allocator_integrity_after_run;
          tc "allocation budget" test_driver_allocation_budget;
          tc "trace replay equivalence" test_trace_replay_equivalence;
          tc "trace record matches write" test_trace_record_matches_write;
        ] );
      ( "schedule",
        [
          tc "same ops under every allocator"
            test_schedule_same_ops_under_every_allocator;
          tc "training matches the played mallocs"
            test_schedule_training_matches_played_mallocs;
          tc "allocation budget" test_schedule_allocation_budget;
        ] );
    ]
