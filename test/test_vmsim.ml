(* Tests for the virtual-memory simulator: Fenwick tree, Mattson LRU
   stack distances (validated against a naive oracle), and the page-fault
   curve machinery. *)

open Vmsim
module Naive_lru = Testkit.Oracle.Naive_lru

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fenwick                                                            *)
(* ------------------------------------------------------------------ *)

let test_fenwick_basic () =
  let f = Fenwick.create 10 in
  check_int "empty prefix" 0 (Fenwick.prefix_sum f 9);
  Fenwick.add f 3 5;
  Fenwick.add f 7 2;
  check_int "prefix to 2" 0 (Fenwick.prefix_sum f 2);
  check_int "prefix to 3" 5 (Fenwick.prefix_sum f 3);
  check_int "prefix to 9" 7 (Fenwick.prefix_sum f 9);
  check_int "range 4..7" 2 (Fenwick.range_sum f ~lo:4 ~hi:7);
  check_int "range 0..3" 5 (Fenwick.range_sum f ~lo:0 ~hi:3);
  check_int "empty range" 0 (Fenwick.range_sum f ~lo:5 ~hi:4);
  check_int "total" 7 (Fenwick.total f)

let test_fenwick_negative_delta () =
  let f = Fenwick.create 4 in
  Fenwick.add f 1 3;
  Fenwick.add f 1 (-3);
  check_int "cancelled" 0 (Fenwick.total f)

let test_fenwick_clear () =
  let f = Fenwick.create 4 in
  Fenwick.add f 0 1;
  Fenwick.add f 3 1;
  Fenwick.clear f;
  check_int "cleared" 0 (Fenwick.total f)

let test_fenwick_prefix_negative_index () =
  let f = Fenwick.create 4 in
  Fenwick.add f 0 1;
  check_int "prefix of -1 is 0" 0 (Fenwick.prefix_sum f (-1))

let prop_fenwick_matches_array =
  QCheck.Test.make ~name:"fenwick matches naive array" ~count:300
    QCheck.(small_list (pair (int_bound 63) (int_range (-5) 5)))
    (fun updates ->
      let n = 64 in
      let f = Fenwick.create n in
      let arr = Array.make n 0 in
      List.iter
        (fun (i, d) ->
          Fenwick.add f i d;
          arr.(i) <- arr.(i) + d)
        updates;
      let ok = ref true in
      for i = 0 to n - 1 do
        let naive = Array.fold_left ( + ) 0 (Array.sub arr 0 (i + 1)) in
        if Fenwick.prefix_sum f i <> naive then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Lru_stack                                                          *)
(* ------------------------------------------------------------------ *)

let test_stack_cold_then_hit () =
  let s = Lru_stack.create () in
  check_int "first access cold" 0 (Lru_stack.access s 1);
  check_bool "immediate repeat distance 1" true
    (Lru_stack.access s 1 = 1);
  check_int "one cold" 1 (Lru_stack.cold s);
  check_int "two accesses" 2 (Lru_stack.accesses s);
  check_int "one distinct" 1 (Lru_stack.distinct s)

let test_stack_distance_counts_distinct () =
  let s = Lru_stack.create () in
  ignore (Lru_stack.access s 1);
  ignore (Lru_stack.access s 2);
  ignore (Lru_stack.access s 3);
  (* 1 was pushed down by 2 and 3: stack position 3. *)
  check_bool "distance 3" true (Lru_stack.access s 1 = 3)

let test_stack_distance_ignores_repeats () =
  let s = Lru_stack.create () in
  ignore (Lru_stack.access s 1);
  ignore (Lru_stack.access s 2);
  ignore (Lru_stack.access s 2);
  ignore (Lru_stack.access s 2);
  (* Only one distinct key (2) between the accesses of 1. *)
  check_bool "distance 2" true (Lru_stack.access s 1 = 2)

let test_stack_misses_at () =
  let s = Lru_stack.create () in
  (* Cyclic pattern over 3 keys: 1 2 3 1 2 3 — distances of the second
     round are all 3. *)
  List.iter (fun k -> ignore (Lru_stack.access s k)) [ 1; 2; 3; 1; 2; 3 ];
  check_int "capacity 3 holds all" 3 (Lru_stack.misses_at s ~capacity:3);
  check_int "capacity 2 misses everything" 6
    (Lru_stack.misses_at s ~capacity:2);
  check_int "capacity 10 only cold" 3 (Lru_stack.misses_at s ~capacity:10)

let test_stack_miss_curve_monotone () =
  let s = Lru_stack.create () in
  let keys = [ 1; 2; 3; 4; 1; 3; 2; 4; 4; 3; 2; 1; 1; 2 ] in
  List.iter (fun k -> ignore (Lru_stack.access s k)) keys;
  let curve = Lru_stack.miss_curve s ~capacities:[ 1; 2; 3; 4; 5 ] in
  let rec non_increasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  check_bool "miss curve non-increasing" true (non_increasing curve)

let test_stack_histogram () =
  let s = Lru_stack.create () in
  List.iter (fun k -> ignore (Lru_stack.access s k)) [ 1; 1; 2; 1 ];
  let h = Lru_stack.histogram s in
  check_int "distance-1 count" 1 h.(1);
  check_int "distance-2 count" 1 h.(2)

let test_stack_compaction () =
  (* Tiny initial capacity forces many compactions; results must be
     unaffected. *)
  let s = Lru_stack.create ~initial_capacity:8 () in
  let naive = Naive_lru.create () in
  let rng = ref 12345 in
  let next_key () =
    rng := (!rng * 1103515245) + 12345;
    (!rng lsr 8) land 15
  in
  for _ = 1 to 2000 do
    let k = next_key () in
    let a = Lru_stack.access s k in
    let b = Option.value ~default:0 (Naive_lru.access naive k) in
    if a <> b then Alcotest.failf "divergence: fast=%d naive=%d (0 = cold)" a b
  done;
  for cap = 1 to 16 do
    check_int
      (Printf.sprintf "misses at %d" cap)
      (Naive_lru.misses_at naive ~capacity:cap)
      (Lru_stack.misses_at s ~capacity:cap)
  done

(* The time index starts at two slots (so it compacts and grows many
   times over) or at 16; keys stride by a power of two, as page indices
   of a strided trace do, so they share their low bits in the key
   table. *)
let stack_start_gen =
  QCheck.(pair (oneofl [ 2; 16 ]) (int_bound 20))

let prop_stack_matches_naive =
  QCheck.Test.make ~name:"stack distances match naive LRU" ~count:100
    QCheck.(
      pair stack_start_gen
        (list_of_size (QCheck.Gen.int_range 1 300) (int_bound 25)))
    (fun ((initial_capacity, log_stride), keys) ->
      let s = Lru_stack.create ~initial_capacity () in
      let naive = Naive_lru.create () in
      List.for_all
        (fun k ->
          let key = k lsl log_stride in
          Lru_stack.access s key
          = Option.value ~default:0 (Naive_lru.access naive key))
        keys)

let prop_stack_miss_counts_match_naive =
  QCheck.Test.make ~name:"miss counts match naive at all capacities"
    ~count:100
    QCheck.(
      pair stack_start_gen
        (list_of_size (QCheck.Gen.int_range 1 200) (int_bound 12)))
    (fun ((initial_capacity, log_stride), keys) ->
      let s = Lru_stack.create ~initial_capacity () in
      let naive = Naive_lru.create () in
      List.iter
        (fun k ->
          let key = k lsl log_stride in
          ignore (Lru_stack.access s key);
          ignore (Naive_lru.access naive key))
        keys;
      List.for_all
        (fun cap ->
          Lru_stack.misses_at s ~capacity:cap
          = Naive_lru.misses_at naive ~capacity:cap)
        [ 1; 2; 3; 5; 8; 13 ])

(* The two tiers against the naive stack: footprints of 1-200 keys
   (the 32-key top tier alone, or over a lower tier of up to 168),
   scans over 32 and 33 keys (hits at distance exactly 32, the top
   tier's last slot, and 33, the lower tier's newest key), and a time
   index starting at two or 16 slots; every lower hit and every cold
   key past the 32nd demotes one key, so the index fills and compacts
   many times over. *)
let two_tier_gen =
  QCheck.Gen.(
    let* initial_capacity = oneofl [ 2; 16 ] in
    let* footprint = int_range 1 200 in
    let random = list_size (int_range 1 300) (int_bound (footprint - 1)) in
    let scan =
      let* width = oneof [ oneofl [ 32; 33 ]; int_range 1 footprint ] in
      let* base = int_bound (footprint - 1) in
      let* rounds = int_range 2 4 in
      return
        (List.concat
           (List.init rounds (fun _ ->
                List.init width (fun i -> (base + i) mod footprint))))
    in
    let* segments = list_size (int_range 1 8) (oneof [ random; scan ]) in
    return ((initial_capacity, footprint), List.concat segments))

let prop_two_tiers_match_naive =
  QCheck.Test.make ~name:"two tiers match naive LRU" ~count:300
    (QCheck.make
       ~print:
         QCheck.Print.(
           pair (pair int int) (fun ks -> string_of_int (List.length ks) ^ " keys"))
       two_tier_gen)
    (fun ((initial_capacity, _), keys) ->
      let s = Lru_stack.create ~initial_capacity () in
      let naive = Naive_lru.create () in
      List.for_all
        (fun key ->
          Lru_stack.access s key
          = Option.value ~default:0 (Naive_lru.access naive key))
        keys
      && Lru_stack.distinct s = List.length (List.sort_uniq Int.compare keys)
      && List.for_all
           (fun cap ->
             Lru_stack.misses_at s ~capacity:cap
             = Naive_lru.misses_at naive ~capacity:cap)
           [ 1; 2; 31; 32; 33; 34; 64; 200 ])

(* The tier boundary by hand: 32 keys then the first again is the top
   tier's last slot; 33 keys then the first is the lower tier's newest
   key; and a deep key's distance counts the keys above it in both
   tiers. *)
let test_stack_tier_boundary () =
  let distance_after n =
    let s = Lru_stack.create ~initial_capacity:2 () in
    for k = 0 to n - 1 do
      ignore (Lru_stack.access s k)
    done;
    Lru_stack.access s 0
  in
  check_int "32 keys: distance 32" 32 (distance_after 32);
  check_int "33 keys: distance 33" 33 (distance_after 33);
  check_int "100 keys: distance 100" 100 (distance_after 100);
  let s = Lru_stack.create ~initial_capacity:2 () in
  for k = 0 to 99 do
    ignore (Lru_stack.access s k)
  done;
  (* Key 50 is 50 deep; bringing 10 back to the top pushes it to 51. *)
  check_int "key 10 from the lower tier" 90 (Lru_stack.access s 10);
  check_int "key 50 one deeper" 51 (Lru_stack.access s 50);
  check_int "key 10 now in the top tier" 2 (Lru_stack.access s 10)

let prop_stack_cold_equals_distinct =
  QCheck.Test.make ~name:"cold count equals distinct keys" ~count:200
    QCheck.(small_list (int_bound 50))
    (fun keys ->
      let s = Lru_stack.create () in
      List.iter (fun k -> ignore (Lru_stack.access s k)) keys;
      Lru_stack.cold s = Lru_stack.distinct s
      && Lru_stack.distinct s = List.length (List.sort_uniq compare keys))

(* ------------------------------------------------------------------ *)
(* Page_sim                                                           *)
(* ------------------------------------------------------------------ *)

let deliver = Testkit.Gen.deliver

let feed_addrs ps addrs =
  deliver (Page_sim.sink ps) (List.map (fun a -> Memsim.Event.read a 4) addrs)

let test_pagesim_basic () =
  let ps = Page_sim.create () in
  feed_addrs ps [ 0; 100; 4096; 8192; 0 ];
  check_int "references" 5 (Page_sim.references ps);
  check_int "distinct pages" 3 (Page_sim.distinct_pages ps);
  check_int "footprint" (3 * 4096) (Page_sim.footprint_bytes ps)

let test_pagesim_fault_counts () =
  let ps = Page_sim.create () in
  (* Pages 0 1 2 0 1 2: with 3 pages of memory only 3 cold faults; with
     2 pages everything misses. *)
  feed_addrs ps [ 0; 4096; 8192; 0; 4096; 8192 ];
  check_int "3 pages: cold only" 3 (Page_sim.faults ps ~memory_bytes:(3 * 4096));
  check_int "2 pages: all faults" 6
    (Page_sim.faults ps ~memory_bytes:(2 * 4096));
  Alcotest.(check (float 1e-9))
    "fault rate" 0.5
    (Page_sim.fault_rate ps ~memory_bytes:(3 * 4096))

let test_pagesim_same_page_collapse () =
  let ps = Page_sim.create () in
  (* Many touches of one page: 1 fault regardless of memory size. *)
  feed_addrs ps (List.init 100 (fun i -> i * 4));
  check_int "one fault" 1 (Page_sim.faults ps ~memory_bytes:4096);
  check_int "all references counted" 100 (Page_sim.references ps)

let test_pagesim_event_spanning_pages () =
  let ps = Page_sim.create () in
  deliver (Page_sim.sink ps) [ Memsim.Event.read 4090 16 ];
  (* crosses a page boundary *)
  check_int "two pages touched" 2 (Page_sim.distinct_pages ps);
  check_int "one reference" 1 (Page_sim.references ps)

let test_pagesim_curve () =
  let ps = Page_sim.create () in
  (* Cycle 8 pages. *)
  for _pass = 1 to 4 do
    for p = 0 to 7 do
      feed_addrs ps [ p * 4096 ]
    done
  done;
  let curve =
    Page_sim.fault_rate_curve ps
      ~memory_sizes:[ 4 * 4096; 8 * 4096; 16 * 4096 ]
  in
  (match curve with
  | [ (_, r4); (_, r8); (_, r16) ] ->
      check_bool "thrash at 4 pages" true (r4 = 1.0);
      check_bool "cold only at 8 pages" true (r8 = 0.25);
      check_bool "cold only at 16 pages" true (r16 = 0.25)
  | _ -> Alcotest.fail "expected three points");
  check_bool "min one page" true (Page_sim.faults ps ~memory_bytes:100 > 0)

let test_pagesim_rejects_bad_page_size () =
  check_bool "bad page size" true
    (match Page_sim.create ~page_bytes:1000 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_pagesim_packed_matches_boxed () =
  (* Packed deliveries must fault exactly as the naive LRU oracle fed
     every page each boxed event touches, in order. *)
  let events =
    List.init 500 (fun i ->
        Memsim.Event.read ((i * 1321) mod 50_000) (1 + (i mod 70)))
  in
  let naive = Naive_lru.create () in
  let cold = ref 0 in
  List.iter
    (fun (e : Memsim.Event.t) ->
      for page = e.addr / 4096 to (e.addr + e.size - 1) / 4096 do
        if Naive_lru.access naive page = None then incr cold
      done)
    events;
  let packed = Page_sim.create () in
  deliver ~grain:9 (Page_sim.sink packed) events;
  check_int "references" (List.length events) (Page_sim.references packed);
  check_int "distinct pages" !cold (Page_sim.distinct_pages packed);
  List.iter
    (fun mb ->
      check_int
        (Printf.sprintf "faults at %d" mb)
        (Naive_lru.misses_at naive ~capacity:(mb / 4096))
        (Page_sim.faults packed ~memory_bytes:mb))
    [ 4096; 8 * 4096; 64 * 4096 ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vmsim"
    [
      ( "fenwick",
        [
          Alcotest.test_case "basic" `Quick test_fenwick_basic;
          Alcotest.test_case "negative delta" `Quick
            test_fenwick_negative_delta;
          Alcotest.test_case "clear" `Quick test_fenwick_clear;
          Alcotest.test_case "prefix of -1" `Quick
            test_fenwick_prefix_negative_index;
        ]
        @ qsuite [ prop_fenwick_matches_array ] );
      ( "lru_stack",
        [
          Alcotest.test_case "cold then hit" `Quick test_stack_cold_then_hit;
          Alcotest.test_case "distance counts distinct" `Quick
            test_stack_distance_counts_distinct;
          Alcotest.test_case "distance ignores repeats" `Quick
            test_stack_distance_ignores_repeats;
          Alcotest.test_case "misses_at" `Quick test_stack_misses_at;
          Alcotest.test_case "miss curve monotone" `Quick
            test_stack_miss_curve_monotone;
          Alcotest.test_case "histogram" `Quick test_stack_histogram;
          Alcotest.test_case "compaction preserves results" `Quick
            test_stack_compaction;
        ]
        @ qsuite
            [
              prop_stack_matches_naive;
              prop_stack_miss_counts_match_naive;
              prop_stack_cold_equals_distinct;
            ]
        @ [ Alcotest.test_case "tier boundary" `Quick test_stack_tier_boundary ]
        @ qsuite [ prop_two_tiers_match_naive ] );
      ( "page_sim",
        [
          Alcotest.test_case "basic" `Quick test_pagesim_basic;
          Alcotest.test_case "fault counts" `Quick test_pagesim_fault_counts;
          Alcotest.test_case "same page collapse" `Quick
            test_pagesim_same_page_collapse;
          Alcotest.test_case "event spanning pages" `Quick
            test_pagesim_event_spanning_pages;
          Alcotest.test_case "curve" `Quick test_pagesim_curve;
          Alcotest.test_case "rejects bad page size" `Quick
            test_pagesim_rejects_bad_page_size;
          Alcotest.test_case "packed equals boxed" `Quick
            test_pagesim_packed_matches_boxed;
        ] );
    ]
