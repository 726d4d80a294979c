(* Tests for the memsim substrate: addresses, events, sinks, regions and
   the simulated word memory. *)

open Memsim

let deliver = Testkit.Gen.deliver

(* Everything [f] delivers to a recording sink, decoded. *)
let record f =
  let tb = Trace_buffer.create ~chunk_capacity:1024 () in
  f (Trace_buffer.sink tb);
  Trace_buffer.events tb

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Addr                                                               *)
(* ------------------------------------------------------------------ *)

let test_addr_align_up () =
  check_int "already aligned" 16 (Addr.align_up 16 ~alignment:8);
  check_int "rounds up" 24 (Addr.align_up 17 ~alignment:8);
  check_int "rounds up to word" 4 (Addr.align_up 1 ~alignment:4);
  check_int "zero stays" 0 (Addr.align_up 0 ~alignment:4096)

let test_addr_align_down () =
  check_int "already aligned" 16 (Addr.align_down 16 ~alignment:8);
  check_int "rounds down" 16 (Addr.align_down 23 ~alignment:8);
  check_int "small value" 0 (Addr.align_down 3 ~alignment:4)

let test_addr_predicates () =
  check_bool "null" true (Addr.is_null Addr.null);
  check_bool "not null" false (Addr.is_null 4);
  check_bool "word aligned" true (Addr.word_aligned 128);
  check_bool "not word aligned" false (Addr.word_aligned 126);
  check_bool "is_aligned" true (Addr.is_aligned 4096 ~alignment:4096);
  check_bool "is_aligned no" false (Addr.is_aligned 4100 ~alignment:4096)

let test_addr_indices () =
  check_int "word index" 3 (Addr.word_index 12);
  check_int "block index" 2 (Addr.block_index 64 ~block_bytes:32);
  check_int "block index interior" 2 (Addr.block_index 95 ~block_bytes:32);
  check_int "page index" 1 (Addr.page_index 4097 ~page_bytes:4096)

let prop_align_up_is_aligned =
  QCheck.Test.make ~name:"align_up result is aligned" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_bound 12))
    (fun (a, k) ->
      let alignment = 1 lsl k in
      let r = Addr.align_up a ~alignment in
      r >= a && r mod alignment = 0 && r - a < alignment)

let prop_align_down_is_aligned =
  QCheck.Test.make ~name:"align_down result is aligned" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_bound 12))
    (fun (a, k) ->
      let alignment = 1 lsl k in
      let r = Addr.align_down a ~alignment in
      r <= a && r mod alignment = 0 && a - r < alignment)

(* The index set and map against [Hashtbl], one op sequence driving
   all four.  Tables start at their smallest and sequences run to 3000
   ops over thousands of keys, so they grow through several doublings;
   the narrow key ranges make many adds updates of a present key.  Keys
   mix 0, max_int, negatives and power-of-two strided block indices,
   whose shared low bits an identity hash would pile up. *)
type index_op = Add of int * int | Find of int | Clear

let index_key_gen =
  QCheck.Gen.(
    frequency
      [ (1, oneofl [ 0; max_int; -1; min_int + 1; max_int - 1 ]);
        (4, map2 (fun i s -> i lsl s) (int_bound 600) (int_range 4 12));
        (2, map (fun i -> -i) (int_bound 2000));
        (3, int_bound 3000) ])

let index_op_gen =
  QCheck.Gen.(
    frequency
      [ (600, map2 (fun k v -> Add (k, v)) index_key_gen int);
        (400, map (fun k -> Find k) index_key_gen);
        (1, return Clear) ])

let prop_index_tables_match_hashtbl =
  QCheck.Test.make ~name:"index set and map match Hashtbl" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 3000) index_op_gen))
    (fun ops ->
      let set = Addr.Index_set.create 1 and map = Addr.Index_map.create 1 in
      let model = Hashtbl.create 16 in
      let step = function
        | Add (k, v) ->
            let fresh = not (Hashtbl.mem model k) in
            Hashtbl.replace model k v;
            Addr.Index_map.replace map k v;
            Addr.Index_set.add set k = fresh
        | Find k ->
            let want = Hashtbl.find_opt model k in
            Addr.Index_set.mem set k = Option.is_some want
            && Addr.Index_map.find map k ~default:(-7)
               = Option.value want ~default:(-7)
        | Clear ->
            Hashtbl.reset model;
            Addr.Index_set.clear set;
            Addr.Index_map.clear map;
            true
      in
      let sorted l = List.sort Stdlib.compare l in
      List.for_all
        (fun op ->
          step op
          && Addr.Index_set.length set = Hashtbl.length model
          && Addr.Index_map.length map = Hashtbl.length model)
        ops
      && sorted (Addr.Index_map.fold (fun k v acc -> (k, v) :: acc) map [])
         = sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))

let test_index_tables_reject_sentinel () =
  let set = Addr.Index_set.create 4 and map = Addr.Index_map.create 4 in
  let raises name f =
    check_bool name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "set add" (fun () -> ignore (Addr.Index_set.add set min_int));
  raises "set mem" (fun () -> ignore (Addr.Index_set.mem set min_int));
  raises "map find" (fun () ->
      ignore (Addr.Index_map.find map min_int ~default:0));
  raises "map replace" (fun () -> Addr.Index_map.replace map min_int 1);
  check_int "set still empty" 0 (Addr.Index_set.length set);
  check_int "map still empty" 0 (Addr.Index_map.length map)

(* ------------------------------------------------------------------ *)
(* Event                                                              *)
(* ------------------------------------------------------------------ *)

let test_event_constructors () =
  let e = Event.read 0x1000 4 in
  check_bool "read kind" true (e.Event.kind = Event.Read);
  check_bool "default source" true (e.Event.source = Event.App);
  let e = Event.write ~source:Event.Malloc 0x2000 8 in
  check_bool "write kind" true (e.Event.kind = Event.Write);
  check_bool "malloc source" true (e.Event.source = Event.Malloc);
  check_int "size" 8 e.Event.size

let test_event_pp () =
  let s = Format.asprintf "%a" Event.pp (Event.read 0x10 4) in
  Alcotest.(check string) "pp" "R app 0x00000010+4" s

(* ------------------------------------------------------------------ *)
(* Sink                                                               *)
(* ------------------------------------------------------------------ *)

let test_sink_counter () =
  let c = Sink.Counter.create () in
  deliver (Sink.Counter.sink c)
    [ Event.read 0x1000 4;
      Event.write 0x1004 4;
      Event.read ~source:Event.Malloc 0x2000 2 ];
  check_int "total" 3 (Sink.Counter.total c);
  check_int "reads" 2 (Sink.Counter.reads c);
  check_int "writes" 1 (Sink.Counter.writes c);
  check_int "bytes" 10 (Sink.Counter.bytes c);
  check_int "app" 2 (Sink.Counter.by_source c Event.App);
  check_int "malloc" 1 (Sink.Counter.by_source c Event.Malloc);
  check_int "free" 0 (Sink.Counter.by_source c Event.Free);
  Sink.Counter.reset c;
  check_int "reset" 0 (Sink.Counter.total c)

let test_sink_fanout () =
  let c1 = Sink.Counter.create () and c2 = Sink.Counter.create () in
  let s = Sink.fanout [ Sink.Counter.sink c1; Sink.Counter.sink c2 ] in
  deliver s [ Event.read 0x1000 4; Event.read 0x1000 4 ];
  check_int "c1 sees all" 2 (Sink.Counter.total c1);
  check_int "c2 sees all" 2 (Sink.Counter.total c2)

let test_sink_fanout_three () =
  let cs = List.init 3 (fun _ -> Sink.Counter.create ()) in
  let s = Sink.fanout (List.map Sink.Counter.sink cs) in
  deliver s [ Event.write 0x4 1 ];
  List.iter (fun c -> check_int "each sees one" 1 (Sink.Counter.total c)) cs

let test_sink_counter_reset () =
  let c = Sink.Counter.create () in
  let s = Sink.Counter.sink c in
  deliver s
    [ Event.read ~source:Event.App 0x10 4;
      Event.write ~source:Event.Malloc 0x14 8;
      Event.read ~source:Event.Free 0x18 2;
      Event.write ~source:Event.Free 0x1c 1 ];
  check_int "pre-reset total" 4 (Sink.Counter.total c);
  Sink.Counter.reset c;
  check_int "total cleared" 0 (Sink.Counter.total c);
  check_int "reads cleared" 0 (Sink.Counter.reads c);
  check_int "writes cleared" 0 (Sink.Counter.writes c);
  check_int "bytes cleared" 0 (Sink.Counter.bytes c);
  check_int "app cells cleared" 0 (Sink.Counter.by_source c Event.App);
  check_int "malloc cells cleared" 0 (Sink.Counter.by_source c Event.Malloc);
  check_int "free cells cleared" 0 (Sink.Counter.by_source c Event.Free);
  (* The counter keeps counting correctly after a reset. *)
  deliver s [ Event.write ~source:Event.Malloc 0x20 16 ];
  check_int "counts resume" 1 (Sink.Counter.total c);
  check_int "bytes resume" 16 (Sink.Counter.bytes c);
  check_int "malloc resumes" 1 (Sink.Counter.by_source c Event.Malloc)

(* ------------------------------------------------------------------ *)
(* Region                                                             *)
(* ------------------------------------------------------------------ *)

let test_region_extend () =
  let r = Region.create ~base:0x1000 ~limit:0x3000 in
  check_int "initial break" 0x1000 (Region.break r);
  let a = Region.extend r 16 in
  check_int "first extend returns base" 0x1000 a;
  let b = Region.extend r 10 in
  check_int "second extend returns old break" 0x1010 b;
  check_int "break word-aligns sizes" 0x101c (Region.break r);
  check_int "used" 0x1c (Region.used_bytes r)

let test_region_contains () =
  let r = Region.create ~base:0x1000 ~limit:0x3000 in
  ignore (Region.extend r 64);
  check_bool "contains base" true (Region.contains r 0x1000);
  check_bool "contains interior" true (Region.contains r 0x103f);
  check_bool "excludes break" false (Region.contains r 0x1040);
  check_bool "excludes below base" false (Region.contains r 0xfff)

let test_region_overflow () =
  let r = Region.create ~base:0x1000 ~limit:0x1010 in
  ignore (Region.extend r 16);
  Alcotest.check_raises "limit enforced"
    (Failure
       "Region.extend: out of space (break=0x1010, need 4, limit=0x1010)")
    (fun () -> ignore (Region.extend r 4))

let test_layout_disjoint () =
  let l = Region.Layout.create () in
  let a = Region.Layout.add l ~name:"globals" ~size:8192 in
  let b = Region.Layout.add l ~name:"heap" ~size:100_000 in
  check_bool "b starts after a's limit" true (Region.base b > Region.limit a);
  check_int "two regions listed" 2 (List.length (Region.Layout.regions l));
  check_bool "page aligned bases" true
    (Region.base a mod 4096 = 0 && Region.base b mod 4096 = 0)

(* ------------------------------------------------------------------ *)
(* Sim_memory                                                         *)
(* ------------------------------------------------------------------ *)

let test_mem_load_store () =
  let m = Sim_memory.create () in
  check_int "uninitialised reads 0" 0 (Sim_memory.load m 0x1000);
  Sim_memory.store m 0x1000 42;
  check_int "reads back" 42 (Sim_memory.load m 0x1000);
  Sim_memory.store m 0x1000 7;
  check_int "overwrites" 7 (Sim_memory.load m 0x1000);
  check_int "peek sees the store" 7 (Sim_memory.peek m 0x1000);
  check_int "neighbour untouched" 0 (Sim_memory.peek m 0x1004)

let test_mem_emits_events () =
  let c = Sink.Counter.create () in
  let m = Sim_memory.create ~sink:(Sink.Counter.sink c) () in
  Sim_memory.store m 0x1000 1;
  ignore (Sim_memory.load m 0x1000);
  Sim_memory.flush m;
  check_int "two events" 2 (Sink.Counter.total c);
  check_int "one read" 1 (Sink.Counter.reads c);
  check_int "one write" 1 (Sink.Counter.writes c);
  check_int "8 bytes" 8 (Sink.Counter.bytes c)

let test_mem_source_attribution () =
  let c = Sink.Counter.create () in
  let m = Sim_memory.create ~sink:(Sink.Counter.sink c) () in
  Sim_memory.set_source m Event.Malloc;
  Sim_memory.store m 0x1000 1;
  Sim_memory.with_source m Event.Free (fun () ->
      ignore (Sim_memory.load m 0x1000));
  (* with_source restored Malloc *)
  Sim_memory.store m 0x1004 2;
  Sim_memory.flush m;
  check_int "malloc refs" 2 (Sink.Counter.by_source c Event.Malloc);
  check_int "free refs" 1 (Sink.Counter.by_source c Event.Free)

let test_mem_with_source_restores_on_raise () =
  let m = Sim_memory.create () in
  Sim_memory.set_source m Event.App;
  (try Sim_memory.with_source m Event.Malloc (fun () -> failwith "boom")
   with Failure _ -> ());
  check_bool "source restored" true (Sim_memory.source m = Event.App)

let test_mem_ranged_word_grain () =
  let evs =
    record (fun sink ->
        let m = Sim_memory.create ~sink () in
        Sim_memory.write_bytes m 0x1002 10;
        Sim_memory.flush m)
  in
  (* 0x1002..0x100b: partial word (2B at 0x1002), word at 0x1004,
     word at 0x1008 — 3 events. *)
  check_int "three pieces" 3 (List.length evs);
  let sizes = List.map (fun (e : Event.t) -> e.size) evs in
  Alcotest.(check (list int)) "piece sizes" [ 2; 4; 4 ] sizes;
  let addrs = List.map (fun (e : Event.t) -> e.addr) evs in
  Alcotest.(check (list int)) "piece addrs" [ 0x1002; 0x1004; 0x1008 ] addrs

let test_mem_ranged_zero () =
  let c = Sink.Counter.create () in
  let m = Sim_memory.create ~sink:(Sink.Counter.sink c) () in
  Sim_memory.read_bytes m 0x1000 0;
  Sim_memory.flush m;
  check_int "no events for empty range" 0 (Sink.Counter.total c)

let test_mem_peek_poke_silent () =
  let c = Sink.Counter.create () in
  let m = Sim_memory.create ~sink:(Sink.Counter.sink c) () in
  Sim_memory.poke m 0x1000 99;
  check_int "poke visible to peek" 99 (Sim_memory.peek m 0x1000);
  Sim_memory.flush m;
  check_int "no events" 0 (Sink.Counter.total c);
  check_int "but visible to load" 99 (Sim_memory.load m 0x1000)

let test_mem_page_boundary () =
  (* 0x10000 is a page boundary for any page of up to 16K words. *)
  let b = 0x10000 in
  let m = Sim_memory.create () in
  Sim_memory.store m (b - 4) 1;
  check_int "other side still 0" 0 (Sim_memory.load m b);
  Sim_memory.store m b 2;
  check_int "below the boundary" 1 (Sim_memory.load m (b - 4));
  check_int "above the boundary" 2 (Sim_memory.load m b);
  check_int "neighbour below" 0 (Sim_memory.load m (b - 8));
  check_int "neighbour above" 0 (Sim_memory.load m (b + 4))

let test_mem_peek_poke_unallocated () =
  let m = Sim_memory.create () in
  (* Past the end of the default layout: no page has been allocated
     here, and the page table does not reach this far yet. *)
  let a = 0x800_0000 in
  check_int "peek of a never-allocated page" 0 (Sim_memory.peek m a);
  Sim_memory.poke m a 5;
  check_int "poke allocates it" 5 (Sim_memory.peek m a);
  check_int "rest of its page is 0" 0 (Sim_memory.peek m (a + 4));
  check_int "lower page still unallocated" 0 (Sim_memory.peek m 0x10000)

let test_mem_rejects_unaligned () =
  let m = Sim_memory.create () in
  Alcotest.check_raises "unaligned load"
    (Invalid_argument "Sim_memory: unaligned word access at 0x1001")
    (fun () -> ignore (Sim_memory.load m 0x1001));
  Alcotest.check_raises "null store"
    (Invalid_argument "Sim_memory: access to null/negative 0x0") (fun () ->
      Sim_memory.store m 0 1)

let prop_ranged_covers_exactly =
  QCheck.Test.make ~name:"ranged events cover exactly [a, a+n)" ~count:300
    QCheck.(pair (int_range 1 100_000) (int_range 1 256))
    (fun (a, n) ->
      let evs =
        record (fun sink ->
            let m = Sim_memory.create ~sink () in
            Sim_memory.read_bytes m a n;
            Sim_memory.flush m)
      in
      (* Contiguous, non-overlapping, total size = n, starting at a. *)
      let rec walk pos = function
        | [] -> pos = a + n
        | (e : Event.t) :: rest ->
            e.addr = pos && e.size > 0 && e.size <= 4
            && walk (pos + e.size) rest
      in
      walk a evs)

(* Region bases of the allocators' real layout ({!Allocators.Heap}): the
   4 MiB static region, the 64 MiB heap above it, and the heap's limit,
   past which nothing is handed out. *)
let layout_bases =
  let l = Region.Layout.create () in
  let static = Region.Layout.add l ~name:"static" ~size:(4 * 1024 * 1024) in
  let heap = Region.Layout.add l ~name:"heap" ~size:(64 * 1024 * 1024) in
  [| Region.base static; Region.base heap; Region.limit heap |]

let prop_store_load_roundtrip =
  QCheck.Test.make ~name:"store/load roundtrip over random programs"
    ~count:200
    QCheck.(
      small_list
        (quad bool (int_bound 2)
           (oneof [ int_bound 64; int_bound 1_000_000 ])
           int))
    (fun ops ->
      let m = Sim_memory.create () in
      let model = Hashtbl.create 16 in
      (* Stores interleaved with loads, which may hit never-stored
         words (expect 0). *)
      let step (is_store, region, slot, v) =
        let a = layout_bases.(region) + (4 * slot) in
        if is_store then begin
          Sim_memory.store m a v;
          Hashtbl.replace model a v;
          true
        end
        else
          Sim_memory.load m a
          = Option.value ~default:0 (Hashtbl.find_opt model a)
      in
      List.for_all step ops
      && Hashtbl.fold (fun a v acc -> acc && Sim_memory.load m a = v) model true)

(* ------------------------------------------------------------------ *)
(* Binary trace capture                                               *)
(* ------------------------------------------------------------------ *)

let binary = Trace.Source.Binary
let encode events = Trace.write binary (fun sink -> deliver sink events)

let replay data =
  let n = ref 0 in
  let events = record (fun sink -> n := Trace.read binary data sink) in
  (!n, events)

let test_trace_roundtrip () =
  let events =
    [ Event.read 0x1000 4;
      Event.write ~source:Event.Malloc 0x1004 4;
      Event.read ~source:Event.Free 0x0ff0 2;
      Event.write 0x2000 64;
      (* > 30 bytes: escaped size *)
      Event.read 0x1_000_000 1;
      (* deltas spanning the whole int range *)
      Event.write max_int 1;
      Event.read 0 4096 ]
  in
  let n, back = replay (encode events) in
  Alcotest.(check int) "event count" (List.length events) n;
  Alcotest.(check bool) "events identical" true (back = events)

let test_trace_rejects_foreign () =
  Alcotest.(check bool) "foreign rejected" true
    (match Trace.read binary "NOTATRACE" Sink.null with
    | exception Failure _ -> true
    | _ -> false)

let test_trace_truncation_detected () =
  let data = encode [ Event.read 0x123456 4 ] in
  (* Chop the last byte off. *)
  let data = String.sub data 0 (String.length data - 1) in
  Alcotest.(check bool) "truncation detected" true
    (match Trace.read binary data Sink.null with
    | exception Failure _ -> true
    | _ -> false)

let test_trace_compactness () =
  (* Sequential word touches encode in ~2 bytes/event. *)
  let data =
    Trace.write binary (fun sink ->
        deliver ~grain:256 sink
          (List.init 10_000 (fun i -> Event.read (0x10000 + (4 * i)) 4)))
  in
  Alcotest.(check bool) "under 3 bytes/event" true
    (String.length data < 30_000)

(* Corrupt binary traces must be reported with the byte offset and the
   offending flags byte, so a bad capture is debuggable with a hex
   dump.  The first event's flags byte sits right after the 8-byte
   magic, at offset 8. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let failure_of f =
  match f () with
  | exception Failure msg -> msg
  | _ -> Alcotest.fail "expected Failure"

let prop_trace_roundtrip_random =
  (* Events come from the shared testkit generator, at full trace-file
     width (addresses to 10M, sizes to 5000) rather than the cache-suite
     defaults.  Sizes up to one page round-trip; a stream holding a
     larger event is refused at that event's flags byte. *)
  QCheck.Test.make ~name:"trace roundtrip on random events" ~count:200
    (QCheck.make
       QCheck.Gen.(
         small_list
           (Testkit.Gen.event_gen ~addr_bound:10_000_000 ~max_size:5000 ())))
    (fun events ->
      let data = encode events in
      let rec legal_prefix acc = function
        | [] -> None
        | (e : Event.t) :: rest ->
            if e.size > 4096 then Some (List.rev acc)
            else legal_prefix (e :: acc) rest
      in
      match legal_prefix [] events with
      | None ->
          let n, back = replay data in
          n = List.length events && back = events
      | Some prefix ->
          (* The magic plus the prefix's events end where the oversize
             event's flags byte starts. *)
          let off = String.length (encode prefix) in
          contains
            (failure_of (fun () -> replay data))
            (Printf.sprintf "byte %d " off))

let test_trace_corrupt_offset () =
  let base = encode [ Event.read 0x1000 4; Event.write 0x2000 8 ] in
  let with_byte off c =
    let b = Bytes.of_string base in
    Bytes.set b off (Char.chr c);
    Bytes.to_string b
  in
  (* Size bits zeroed: flags 0x00 at offset 8. *)
  let msg =
    failure_of (fun () -> Trace.read binary (with_byte 8 0x00) Sink.null)
  in
  Alcotest.(check bool) "corrupt size names byte 8" true
    (contains msg "byte 8" && contains msg "0x00");
  (* Both source bits set (source 3) with a valid inline size. *)
  let msg =
    failure_of (fun () -> Trace.read binary (with_byte 8 0x0e) Sink.null)
  in
  Alcotest.(check bool) "bad source names byte 8 and flags" true
    (contains msg "byte 8" && contains msg "0x0e")

let test_trace_truncated_offset () =
  (* Keep the magic plus the first event's flags byte only: the address
     varint is missing, and the error must point at the event start. *)
  let base = encode [ Event.read 0x123456 4 ] in
  let msg =
    failure_of (fun () -> Trace.read binary (String.sub base 0 9) Sink.null)
  in
  Alcotest.(check bool) "truncation names byte 8" true (contains msg "byte 8")

(* Hand-made captures that ask for more than an event may: each must be
   refused at its flags byte, before any work is done on its behalf. *)
let test_trace_bounds_located () =
  let refused what data flags =
    let msg = failure_of (fun () -> Trace.read binary data Sink.null) in
    Alcotest.(check bool)
      (Printf.sprintf "%s names byte 8 (%s)" what msg)
      true
      (contains msg (Printf.sprintf "byte 8 (flags 0x%02x)" flags))
  in
  (* One read of 2^36 bytes: escaped size varint, then delta 0x1000. *)
  refused "2^36-byte read"
    "LOCLAB1\n\xf8\x80\x80\x80\x80\x80\x02\x80\x40" 0xf8;
  (* A 13-byte address varint. *)
  refused "13-byte varint"
    ("LOCLAB1\n\x08" ^ String.make 12 '\x80' ^ "\x01")
    0x08;
  (* A delta of -1 from address 0. *)
  refused "negative address" "LOCLAB1\n\x08\x01" 0x08

(* ------------------------------------------------------------------ *)
(* Trace sources: text / CSV readers and writers                     *)
(* ------------------------------------------------------------------ *)

let read_events fmt data =
  let n = ref 0 in
  let events = record (fun sink -> n := Trace.read fmt data sink) in
  (!n, events)

let test_text_empty () =
  let n, events = read_events Trace.Source.Text "" in
  Alcotest.(check int) "no events" 0 n;
  Alcotest.(check bool) "empty stream" true (events = []);
  let n, _ = read_events Trace.Source.Text "\n  \n\r\n" in
  Alcotest.(check int) "blank lines skipped" 0 n

let test_text_crlf_mixed_case () =
  let n, events =
    read_events Trace.Source.Text "r 0x10\r\nW 0x20\r\nR 30\nw 0X40\n"
  in
  Alcotest.(check int) "count" 4 n;
  Alcotest.(check bool) "normalised to size-1 App accesses" true
    (events
    = [ Event.read 0x10 1; Event.write 0x20 1; Event.read 0x30 1;
        Event.write 0x40 1 ])

let test_text_wide_address () =
  (* Addresses past 2^32 must survive; cachetrace captures from 64-bit
     processes routinely carry them. *)
  let n, events = read_events Trace.Source.Text "R 0x1deadbeef0\n" in
  Alcotest.(check int) "count" 1 n;
  Alcotest.(check bool) "64-bit address" true
    (events = [ Event.read 0x1deadbeef0 1 ])

let test_text_errors_locate_line () =
  let msg =
    failure_of (fun () -> read_events Trace.Source.Text "R 0x10\nbogus\n")
  in
  Alcotest.(check bool) "bad op names line 2" true (contains msg "line 2");
  let msg =
    failure_of (fun () -> read_events Trace.Source.Text "R 0x10\nW\n")
  in
  Alcotest.(check bool) "missing address names line 2" true
    (contains msg "line 2");
  let msg =
    failure_of (fun () ->
        read_events Trace.Source.Text "R 0xffffffffffffffffff\n")
  in
  Alcotest.(check bool) "overflow detected" true (contains msg "overflow")

let test_csv_roundtrip () =
  let csv = "index,op,address\n0,R,0x1000\n1,W,0x2000\n" in
  let n, events = read_events Trace.Source.Csv csv in
  Alcotest.(check int) "count" 2 n;
  Alcotest.(check bool) "events" true
    (events = [ Event.read 0x1000 1; Event.write 0x2000 1 ]);
  let out =
    Trace.write Trace.Source.Csv (fun sink ->
        ignore (Trace.read Trace.Source.Csv csv sink))
  in
  Alcotest.(check string) "csv write reproduces the capture" csv out;
  let msg =
    failure_of (fun () -> read_events Trace.Source.Csv "0,R,0x1000\n")
  in
  Alcotest.(check bool) "missing header rejected" true
    (contains msg "header")

(* A CSV row's index is its ordinal among the data rows: a shuffled,
   spliced, re-numbered or unnumbered capture fails on the first row
   out of sequence, naming its line; an export imports back as the
   stream it came from. *)
let test_csv_index_is_the_ordinal () =
  let csv = "index,op,address\n0,R,0x1000\n1,W,0x2000\n2,R,0x3000\n" in
  let fails what data expected =
    Alcotest.(check string) what expected
      (failure_of (fun () -> read_events Trace.Source.Csv data))
  in
  fails "rows swapped"
    "index,op,address\n0,R,0x1000\n2,R,0x3000\n1,W,0x2000\n"
    "Trace.Csv: line 3: expected index 1 in \"2,R,0x3000\"";
  fails "two exports spliced" (csv ^ "0,W,0x4000\n1,W,0x5000\n")
    "Trace.Csv: line 5: expected index 3 in \"0,W,0x4000\"";
  fails "a row dropped" "index,op,address\n0,R,0x1000\n2,R,0x3000\n"
    "Trace.Csv: line 3: expected index 1 in \"2,R,0x3000\"";
  fails "numbered from 1" "index,op,address\n1,R,0x1000\n"
    "Trace.Csv: line 2: expected index 0 in \"1,R,0x1000\"";
  fails "x index" "index,op,address\n0,R,0x1\nx,R,0x1000\n"
    "Trace.Csv: line 3: index must be decimal digits in \"x,R,0x1000\"";
  fails "signed index" "index,op,address\n+0,R,0x1000\n"
    "Trace.Csv: line 2: index must be decimal digits in \"+0,R,0x1000\"";
  fails "empty index" "index,op,address\n\n0,R,0x1\n,R,0x1000\r\n"
    "Trace.Csv: line 4: missing index in \",R,0x1000\"";
  fails "index past any int"
    ("index,op,address\n" ^ String.make 25 '9' ^ ",R,0x1\n")
    ("Trace.Csv: line 2: expected index 0 in \"" ^ String.make 25 '9' ^ ",R,0x1\"");
  let n, events =
    read_events Trace.Source.Csv
      "index,op,address\n0,R,0x1\n\n001,W,0x2\r\n00000000000000000000002,R,0x3"
  in
  Alcotest.(check int) "zero-padded ordinals and blank lines" 3 n;
  Alcotest.(check bool) "their events" true
    (events = [ Event.read 1 1; Event.write 2 1; Event.read 3 1 ]);
  (* Export -> import over several batches: the indices the writer
     numbers across batch boundaries are the ones the reader expects. *)
  let stream =
    List.init 1000 (fun i ->
        if i mod 3 = 0 then Event.write (i * 4096) 1 else Event.read (i * 64) 1)
  in
  let deliver sink =
    List.iter
      (fun lo ->
        let b = Event.Batch.create () in
        List.iteri
          (fun i e -> if i >= lo && i < lo + 300 then Event.Batch.push_event b e)
          stream;
        sink b)
      [ 0; 300; 600; 900 ]
  in
  let export = Trace.write Trace.Source.Csv deliver in
  let n, events = read_events Trace.Source.Csv export in
  Alcotest.(check int) "round trip count" 1000 n;
  Alcotest.(check bool) "round trip events" true (events = stream);
  Alcotest.(check string) "re-export is byte-identical" export
    (Trace.write Trace.Source.Csv (fun sink ->
         ignore (Trace.read Trace.Source.Csv export sink)))

let test_source_sniff () =
  let check what fmt data =
    Alcotest.(check string) what
      (Trace.Source.format_to_string fmt)
      (Trace.Source.format_to_string (Trace.Source.sniff data))
  in
  check "binary magic" Trace.Source.Binary (encode []);
  check "csv header" Trace.Source.Csv "index,op,address\r\n0,R,0x1\n";
  check "anything else is text" Trace.Source.Text "R 0x10\n";
  (* The header rule is the CSV reader's: the first non-blank line,
     trimmed, any case. *)
  let sniffed_csv what data =
    check what Trace.Source.Csv data;
    let n, _ = read_events (Trace.Source.sniff data) data in
    check_int (what ^ ": read as sniffed") 1 n
  in
  sniffed_csv "header with trailing blanks" "index,op,address \n0,R,0x1\n";
  sniffed_csv "header after a blank line" "\nIndex,Op,Address\n0,W,0x2\n";
  Alcotest.(check bool) "format_of_string is case-insensitive" true
    (Trace.Source.format_of_string "CSV" = Ok Trace.Source.Csv);
  Alcotest.(check bool) "unknown format is a typed error" true
    (match Trace.Source.format_of_string "elf" with
    | Error _ -> true
    | Ok _ -> false)

let prop_text_csv_text_roundtrip =
  (* text -> packed -> CSV -> packed -> text is the identity on
     canonically rendered captures. *)
  QCheck.Test.make ~name:"text -> csv -> text roundtrip" ~count:200
    QCheck.(small_list (pair bool (int_bound 0x3fff_ffff_ffff)))
    (fun accesses ->
      let text =
        Trace.write Trace.Source.Text (fun sink ->
            deliver sink
              (List.map
                 (fun (w, addr) ->
                   if w then Event.write addr 1 else Event.read addr 1)
                 accesses))
      in
      let csv =
        Trace.write Trace.Source.Csv (fun sink ->
            ignore (Trace.read Trace.Source.Text text sink))
      in
      let text2 =
        Trace.write Trace.Source.Text (fun sink ->
            ignore (Trace.read Trace.Source.Csv csv sink))
      in
      text2 = text)

(* ---- writer and reader differentials ---------------------------------- *)

(* The writers against Printf, the formats they replace.  Each batch
   is a list of (write?, address), delivered as one Event.Batch of any
   length (beyond 256 it grows). *)
let deliver_batches (sink : Sink.t) batches =
  List.iter
    (fun accesses ->
      let b = Event.Batch.create () in
      List.iter
        (fun (w, addr) ->
          Event.Batch.push b ~addr
            ~meta:
              (Event.Packed.meta
                 ~kind:(if w then Event.Write else Event.Read)
                 ~source:Event.App ~size:1))
        accesses;
      sink b)
    batches

let printf_text batches =
  let b = Buffer.create 256 in
  List.iter
    (List.iter (fun (w, addr) ->
         Printf.bprintf b "%s 0x%x\n" (if w then "W" else "R") addr))
    batches;
  Buffer.contents b

let printf_csv batches =
  let b = Buffer.create 256 in
  Buffer.add_string b "index,op,address\n";
  List.iteri
    (fun i (w, addr) -> Printf.bprintf b "%d,%s,0x%x\n" i (if w then "W" else "R") addr)
    (List.concat batches);
  Buffer.contents b

let writers_match_printf batches =
  Trace.write Trace.Source.Text (fun sink -> deliver_batches sink batches)
  = printf_text batches
  && Trace.write Trace.Source.Csv (fun sink -> deliver_batches sink batches)
     = printf_csv batches

let prop_writers_match_printf =
  (* Addresses over the whole int range ("%x" prints 63 unsigned bits,
     so negatives too) with the digit-count edges mixed in; some
     batches run past 256 events, and a case of up to ~2000 rows
     crosses the CSV index's powers of ten up to 1000. *)
  let addr =
    QCheck.Gen.(
      frequency
        [ (4, int);
          (2, int_bound 0xffff);
          (1, oneofl [ 0; 15; 16; 255; 256; max_int; min_int; -1 ]) ])
  in
  let batch =
    QCheck.Gen.(
      list_size
        (frequency [ (3, int_range 0 40); (1, int_range 250 700) ])
        (pair bool addr))
  in
  QCheck.Test.make ~name:"text and csv writers equal Printf" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 3) batch))
    writers_match_printf

let test_writers_cross_ten_thousand () =
  (* 10,050 rows in batches of 1,000: the index crosses 10^4. *)
  let batches =
    List.init 11 (fun k ->
        List.init (if k = 10 then 50 else 1000) (fun i ->
            (i land 1 = 1, (k * 1000) + i)))
  in
  check_bool "text and csv equal Printf" true (writers_match_printf batches)

(* The fast reader against [Testkit.Oracle.Trace_lines], the
   line-at-a-time parser it replaces: same events, count and batch
   boundaries on irregular valid captures, the same message (line
   number included) on malformed ones. *)
let read_outcome read data =
  let events = ref [] and batches = ref [] in
  let sink (b : Event.Batch.t) =
    batches := b.Event.Batch.len :: !batches;
    for i = 0 to b.Event.Batch.len - 1 do
      events := (b.Event.Batch.addrs.(i), b.Event.Batch.metas.(i)) :: !events
    done
  in
  match read data sink with
  | n -> Ok (n, List.rev !events, List.rev !batches)
  | exception Failure msg -> Error msg

let fast_read fmt data = read_outcome (Trace.read fmt) data

let ref_read fmt data =
  read_outcome
    (match fmt with
    | Trace.Source.Csv -> Testkit.Oracle.Trace_lines.read_csv
    | _ -> Testkit.Oracle.Trace_lines.read_text)
    data

let outcome_to_string = function
  | Ok (n, _, _) -> Printf.sprintf "Ok %d events" n
  | Error msg -> "Error " ^ msg

(* Hex digits of an address: canonical, or zero-padded to 15, 16 or 17
   digits (the fast path's limit and either side of the 63-bit edge),
   in random case. *)
let hex_field_gen =
  QCheck.Gen.(
    let addr = map (fun v -> v land max_int) int in
    let digits =
      frequency
        [ (3, map (Printf.sprintf "%x") (int_bound 0xfffff));
          (2, map (Printf.sprintf "%x") addr);
          (1, map (fun v -> Printf.sprintf "%015x" (v land 0xfff_ffff_ffff_ffff)) addr);
          (1, map (Printf.sprintf "%016x") addr);
          (1, map (Printf.sprintf "%017x") addr);
          (1, return (Printf.sprintf "%x" max_int)) ]
    in
    pair digits bool >>= fun (d, upper) ->
    map
      (fun prefix -> prefix ^ if upper then String.uppercase_ascii d else d)
      (frequency [ (4, return "0x"); (1, return "0X"); (1, return "") ]))

let eol_gen = QCheck.Gen.(frequency [ (4, return "\n"); (1, return "\r\n") ])

let blank_line_gen =
  QCheck.Gen.(
    map2 ( ^ ) (oneofl [ ""; " "; "\t"; "  \t" ]) eol_gen)

let text_line_gen =
  QCheck.Gen.(
    frequency
      [ (* canonical: the fast path *)
        ( 4,
          map2
            (fun w a -> Printf.sprintf "%s 0x%x\n" (if w then "W" else "R") a)
            bool (int_bound 0xffffff) );
        ( 3,
          oneofl [ "R"; "r"; "W"; "w" ] >>= fun op ->
          oneofl [ " "; "\t"; "  "; " \t " ] >>= fun ws ->
          hex_field_gen >>= fun hex ->
          oneofl [ ""; ""; " "; "\t"; " \t" ] >>= fun trail ->
          map (fun eol -> op ^ ws ^ hex ^ trail ^ eol) eol_gen );
        (1, blank_line_gen) ])

(* A CSV line: a data row, rendered once its ordinal among the data
   rows is known, or a line that is not a row. *)
type csv_line = Row of (int -> string) | Other of string

(* Each data row's index is its ordinal: as the writer spells it, or
   zero-padded (past the fast path's 18 digits too). *)
let csv_row_gen =
  QCheck.Gen.(
    frequency
      [ ( 4,
          map2
            (fun w a ->
              Row (fun i -> Printf.sprintf "%d,%s,0x%x\n" i (if w then "W" else "R") a))
            bool (int_bound 0xffffff) );
        ( 3,
          oneofl
            [ string_of_int; Printf.sprintf "%05d"; Printf.sprintf "%020d" ]
          >>= fun index ->
          oneofl [ "R"; "r"; "W"; "w" ] >>= fun op ->
          hex_field_gen >>= fun hex ->
          map (fun eol -> Row (fun i -> index i ^ "," ^ op ^ "," ^ hex ^ eol)) eol_gen
        );
        (1, map (fun l -> Other l) blank_line_gen) ])

let number_rows lines =
  let n = ref 0 in
  List.map
    (function
      | Other l -> l
      | Row f ->
          incr n;
          f (!n - 1))
    lines

let csv_header_gen =
  QCheck.Gen.(
    list_size (int_range 0 2) blank_line_gen >>= fun blanks ->
    oneofl
      [ "index,op,address"; "INDEX,OP,ADDRESS"; "Index,Op,Address  ";
        " index,op,address\t" ]
    >>= fun header ->
    map (fun eol -> String.concat "" blanks ^ header ^ eol) eol_gen)

(* Lines, some runs past one batch. *)
let lines_gen line_gen =
  QCheck.Gen.(
    list_size (frequency [ (3, int_range 0 30); (1, int_range 250 600) ]) line_gen)

(* The lines [render] makes, maybe without a final newline. *)
let capture_of_gen render lines_gen =
  QCheck.Gen.(
    lines_gen >>= fun lines ->
    map
      (fun chop ->
        let s = String.concat "" (render lines) in
        let n = String.length s in
        if chop && n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s)
      bool)

let capture_gen line_gen = capture_of_gen Fun.id (lines_gen line_gen)
let text_capture_gen = capture_gen text_line_gen
let csv_rows_gen = capture_of_gen number_rows (lines_gen csv_row_gen)
let csv_capture_gen = QCheck.Gen.map2 ( ^ ) csv_header_gen csv_rows_gen

let same_outcome fmt data =
  let fast = fast_read fmt data and reference = ref_read fmt data in
  if fast = reference then true
  else
    QCheck.Test.fail_reportf "fast %s, reference %s"
      (outcome_to_string fast) (outcome_to_string reference)

let prop_text_reader_matches_reference =
  QCheck.Test.make ~name:"text reader equals the line reader" ~count:300
    (QCheck.make ~print:String.escaped text_capture_gen)
    (fun data ->
      match fast_read Trace.Source.Text data with
      | Error msg -> QCheck.Test.fail_reportf "valid capture refused: %s" msg
      | Ok _ -> same_outcome Trace.Source.Text data)

let prop_csv_reader_matches_reference =
  QCheck.Test.make ~name:"csv reader equals the line reader" ~count:300
    (QCheck.make ~print:String.escaped csv_capture_gen)
    (fun data ->
      match fast_read Trace.Source.Csv data with
      | Error msg -> QCheck.Test.fail_reportf "valid capture refused: %s" msg
      | Ok _ -> same_outcome Trace.Source.Csv data)

(* A malformed line spliced into a valid capture, after its header. *)
let malformed_gen capture_gen bad_lines =
  QCheck.Gen.(
    capture_gen >>= fun data ->
    oneofl bad_lines >>= fun bad ->
    eol_gen >>= fun eol ->
    map
      (fun cut ->
        (* cut at a line start, past a CSV header *)
        let starts =
          List.filter
            (fun i -> i = 0 || data.[i - 1] = '\n')
            (List.init (String.length data + 1) Fun.id)
        in
        let i = List.nth starts (cut mod List.length starts) in
        String.sub data 0 i ^ bad ^ eol ^ String.sub data i (String.length data - i))
      nat)

let long_hex = "R 0x" ^ String.make 70 'f'

let prop_text_errors_match_reference =
  let bad =
    [ "X 0x10"; "bogus"; "R0x10"; "R_0x10"; "RW 0x10"; "R"; "R "; "R 0x"; "R 0x1g";
      "W 0x4000000000000000"; "w\t0X4000000000000000"; "R 0xffffffffffffffffff";
      long_hex ]
  in
  QCheck.Test.make ~name:"text errors equal the line reader's" ~count:300
    (QCheck.make ~print:String.escaped (malformed_gen text_capture_gen bad))
    (fun data ->
      match fast_read Trace.Source.Text data with
      | Ok _ -> QCheck.Test.fail_reportf "malformed capture accepted"
      | Error _ -> same_outcome Trace.Source.Text data)

let prop_csv_errors_match_reference =
  (* Each malformed row is given its ordinal, so the fault it carries is
     the one reported; the index faults come last. *)
  let bad =
    List.map
      (fun tail i -> string_of_int i ^ tail)
      [ ",RW,0x10"; ",,0x10"; ",X,0x10"; ",R,"; ",R,0x"; ",R,0x1g"; ",R,0x10 ";
        ",R,0x4000000000000000"; ";R;0x10"; ",R 0x10"; ",R;0x10";
        ",W," ^ String.make 70 'f' ]
    @ [ (fun _ -> "nonsense"); (fun _ -> ",R,0x10"); (fun _ -> "x,R,0x10");
        (fun i -> string_of_int i ^ "x,R,0x10");
        (fun i -> " " ^ string_of_int i ^ ",R,0x10");
        (fun i -> "+" ^ string_of_int i ^ ",R,0x10");
        (fun i -> string_of_int (i + 1) ^ ",R,0x10");
        (fun i -> string_of_int (i - 1) ^ ",W,0x10");
        (fun i -> String.make 30 '9' ^ string_of_int i ^ ",R,0x10") ]
  in
  (* A malformed row spliced among the rows of a valid capture. *)
  let spliced =
    QCheck.Gen.(
      lines_gen csv_row_gen >>= fun lines ->
      oneofl bad >>= fun row ->
      eol_gen >>= fun eol ->
      map
        (fun cut ->
          let cut = cut mod (List.length lines + 1) in
          List.filteri (fun i _ -> i < cut) lines
          @ (Row (fun i -> row i ^ eol) :: List.filteri (fun i _ -> i >= cut) lines))
        nat)
  in
  let gen =
    QCheck.Gen.(
      frequency
        [ ( 4,
            map2 ( ^ ) csv_header_gen
              (capture_of_gen number_rows spliced) );
          (* no header: the first non-blank line is a row *)
          ( 1,
            map2 ( ^ )
              (map (String.concat "") (list_size (int_range 0 2) blank_line_gen))
              (map (( ^ ) "0,R,0x10\n") csv_rows_gen) ) ])
  in
  QCheck.Test.make ~name:"csv errors equal the line reader's" ~count:300
    (QCheck.make ~print:String.escaped gen)
    (fun data ->
      match fast_read Trace.Source.Csv data with
      | Ok _ -> QCheck.Test.fail_reportf "malformed capture accepted"
      | Error _ -> same_outcome Trace.Source.Csv data)

(* ------------------------------------------------------------------ *)
(* Packed events: codec, batches, and packed-vs-boxed differentials   *)
(* ------------------------------------------------------------------ *)

(* Full-width event generator: the codec must round-trip the entire
   kind x source x size x addr domain, not just cache-suite sizes. *)
let wide_event_gen = Testkit.Gen.event_gen ~addr_bound:1_000_000_000 ~max_size:1_000_000 ()

let prop_packed_roundtrip =
  QCheck.Test.make ~name:"packed codec roundtrip" ~count:1000
    (QCheck.make wide_event_gen)
    (fun e ->
      let meta = Event.Packed.meta_of_event e in
      Event.Packed.to_event ~addr:e.Event.addr ~meta = e
      && Event.Packed.kind meta = e.Event.kind
      && Event.Packed.source meta = e.Event.source
      && Event.Packed.size meta = e.Event.size)

let test_packed_meta_layout () =
  (* The layout is load-bearing: it must equal the word Checksum mixes
     (size lsl 3 | kind lsl 2 | source). *)
  check_int "write/free/5" ((5 lsl 3) lor 4 lor 2)
    (Event.Packed.meta ~kind:Event.Write ~source:Event.Free ~size:5);
  check_int "read/app/1" (1 lsl 3)
    (Event.Packed.meta ~kind:Event.Read ~source:Event.App ~size:1);
  (* ks = ki*3 + si, the 6-cell counter layout. *)
  let ks kind source =
    Event.Packed.ks (Event.Packed.meta ~kind ~source ~size:4)
  in
  check_int "R/app" 0 (ks Event.Read Event.App);
  check_int "R/malloc" 1 (ks Event.Read Event.Malloc);
  check_int "R/free" 2 (ks Event.Read Event.Free);
  check_int "W/app" 3 (ks Event.Write Event.App);
  check_int "W/malloc" 4 (ks Event.Write Event.Malloc);
  check_int "W/free" 5 (ks Event.Write Event.Free)

let test_batch_basics () =
  let b = Event.Batch.create ~capacity:2 () in
  check_int "empty" 0 (Event.Batch.length b);
  let e1 = Event.read 0x1000 4 and e2 = Event.write ~source:Event.Malloc 0x2000 8 in
  Event.Batch.push_event b e1;
  Event.Batch.push_event b e2;
  Event.Batch.push b ~addr:0x3000 ~meta:(Event.Packed.meta ~kind:Event.Read ~source:Event.Free ~size:2);
  (* grew past capacity 2 *)
  check_int "three events" 3 (Event.Batch.length b);
  check_bool "get 0" true (Event.Batch.get b 0 = e1);
  check_bool "get 1" true (Event.Batch.get b 1 = e2);
  check_bool "to_list" true
    (Event.Batch.to_list b = [ e1; e2; Event.read ~source:Event.Free 0x3000 2 ]);
  let b2 = Event.Batch.create () in
  Event.Batch.append b2 b;
  Event.Batch.append b2 b;
  check_int "append" 6 (Event.Batch.length b2);
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Event.Batch.get: out of bounds") (fun () ->
      ignore (Event.Batch.get b 3));
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Event.Batch.create: capacity must be >= 1") (fun () ->
      ignore (Event.Batch.create ~capacity:0 ()))

let counter_cells c =
  Sink.Counter.
    [ total c; reads c; writes c; bytes c;
      by_source c Event.App; by_source c Event.Malloc; by_source c Event.Free ]

(* The reference: every Counter tally and the FNV-1a checksum (address,
   then meta word, per event), folded straight over the event list. *)
let reference_tallies events =
  let count p = List.length (List.filter p events) in
  let by_source src = count (fun (e : Event.t) -> e.source = src) in
  [ List.length events;
    count (fun (e : Event.t) -> e.kind = Event.Read);
    count (fun (e : Event.t) -> e.kind = Event.Write);
    List.fold_left (fun acc (e : Event.t) -> acc + e.size) 0 events;
    by_source Event.App; by_source Event.Malloc; by_source Event.Free ]

let reference_checksum events =
  let mix h x = (h lxor x) * 0x100000001B3 in
  List.fold_left
    (fun h (e : Event.t) -> mix (mix h e.addr) (Event.Packed.meta_of_event e))
    0x11C9DC5 events
  land max_int

let prop_packed_counter_checksum_differential =
  (* Packed deliveries of a random trace must leave Counter and Checksum
     in exactly the state a fold over the event list computes. *)
  QCheck.Test.make
    ~name:"packed Counter/Checksum equal boxed on random traces" ~count:300
    (QCheck.make (Testkit.Gen.events_gen ()))
    (fun events ->
      let c = Sink.Counter.create () and h = Sink.Checksum.create () in
      deliver (Sink.Counter.sink c) events;
      deliver (Sink.Checksum.sink h) events;
      counter_cells c = reference_tallies events
      && Sink.Checksum.value h = reference_checksum events)

let test_trace_buffer_roundtrip () =
  (* Chunks rotate — tiny fixed ones, and default ones that grow from a
     small first chunk; deliveries of mixed sizes must concatenate in
     order, and replay must reproduce the stream. *)
  List.iter
    (fun (chunk_capacity, n) ->
      let tb = Trace_buffer.create ~chunk_capacity () in
      let s = Trace_buffer.sink tb in
      let evs = List.init n (fun i ->
          if i mod 3 = 0 then
            Event.write ~source:Event.Malloc (0x1000 + (4 * i)) 4
          else Event.read (0x1000 + (4 * i)) 4)
      in
      (match evs with
      | e0 :: e1 :: rest ->
          deliver s [ e0 ];
          deliver s [ e1 ];
          deliver ~grain:6 s rest
      | _ -> assert false);
      check_int "length" n (Trace_buffer.length tb);
      check_bool "events in order" true (Trace_buffer.events tb = evs);
      check_bool "replay reproduces stream" true
        (record (Trace_buffer.replay tb) = evs);
      let chunks = Trace_buffer.chunks tb in
      check_bool "chunk sizes" true
        (Array.for_all
           (fun c -> Event.Batch.capacity c <= chunk_capacity)
           chunks);
      check_bool "first chunk no larger than the capture needs" true
        (Event.Batch.capacity chunks.(0) <= max 4096 (min n chunk_capacity)))
    [ (4, 23); (Trace_buffer.default_chunk_capacity, 30_000) ]

let test_trace_buffer_rejects () =
  Alcotest.check_raises "zero chunk capacity"
    (Invalid_argument "Trace_buffer.create: chunk_capacity must be >= 1")
    (fun () -> ignore (Trace_buffer.create ~chunk_capacity:0 ()))

let test_mem_internal_batching () =
  (* Sim_memory batches internally: under one batch nothing is
     delivered until flush; at the 256-event grain it auto-flushes. *)
  let c = Sink.Counter.create () in
  let m = Sim_memory.create ~sink:(Sink.Counter.sink c) () in
  for i = 0 to 9 do
    Sim_memory.store m (0x1000 + (4 * i)) i
  done;
  check_int "buffered, not yet visible" 0 (Sink.Counter.total c);
  Sim_memory.flush m;
  check_int "visible after flush" 10 (Sink.Counter.total c);
  for i = 0 to 255 do
    Sim_memory.store m (0x2000 + (4 * i)) i
  done;
  check_int "auto-flushed at batch grain" 266 (Sink.Counter.total c);
  (* set_sink flushes pending events to the OLD sink. *)
  let old_total = Sink.Counter.total c in
  Sim_memory.store m 0x9000 1;
  let c2 = Sink.Counter.create () in
  Sim_memory.set_sink m (Sink.Counter.sink c2);
  check_int "pending flushed to old sink" (old_total + 1) (Sink.Counter.total c);
  Sim_memory.store m 0x9004 1;
  Sim_memory.flush m;
  check_int "new sink gets later events" 1 (Sink.Counter.total c2)

(* One step of a random access program for {!Sim_memory}. *)
type op =
  | Load of int  (* word address *)
  | Store of int
  | Read of int * int  (* any start, 0..300 bytes *)
  | Write of int * int
  | Source of Event.source

let op_gen =
  QCheck.Gen.(
    let word = int_range 1 4096 >|= fun w -> w * 4 in
    let range = pair (int_range 1 16384) (int_bound 300) in
    frequency
      [ (2, word >|= fun a -> Load a);
        (2, word >|= fun a -> Store a);
        (4, range >|= fun (a, n) -> Read (a, n));
        (4, range >|= fun (a, n) -> Write (a, n));
        (1, int_range 0 2 >|= fun s -> Source (Testkit.Gen.source_of_int s)) ])

(* The batches a reference emitter delivers for [ops]: it pushes one
   word-grain event at a time (a range splits at every word boundary),
   delivers every 256 events, and delivers the rest at the end. *)
let reference_batches ops =
  let batches = ref [] and pending = ref [] and count = ref 0 in
  let push kind source addr size =
    pending := (addr, Event.Packed.meta ~kind ~source ~size) :: !pending;
    incr count;
    if !count = 256 then begin
      batches := List.rev !pending :: !batches;
      pending := [];
      count := 0
    end
  in
  let rec range kind source a n =
    if n > 0 then begin
      let piece = Int.min n (Addr.word_bytes - (a mod Addr.word_bytes)) in
      push kind source a piece;
      range kind source (a + piece) (n - piece)
    end
  in
  let source = ref Event.App in
  List.iter
    (function
      | Load a -> push Event.Read !source a Addr.word_bytes
      | Store a -> push Event.Write !source a Addr.word_bytes
      | Read (a, n) -> range Event.Read !source a n
      | Write (a, n) -> range Event.Write !source a n
      | Source s -> source := s)
    ops;
  if !pending <> [] then batches := List.rev !pending :: !batches;
  List.rev !batches

let prop_mem_emission_matches_reference =
  (* Sim_memory's deliveries, batch by batch: each batch's length and
     its (addr, meta) pairs, in order. *)
  QCheck.Test.make ~name:"sim_memory batches equal a word-at-a-time emitter"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 200) op_gen))
    (fun ops ->
      let got = ref [] in
      let sink (b : Event.Batch.t) =
        got :=
          List.init b.Event.Batch.len (fun i ->
              (b.Event.Batch.addrs.(i), b.Event.Batch.metas.(i)))
          :: !got
      in
      let m = Sim_memory.create ~sink () in
      List.iter
        (function
          | Load a -> ignore (Sim_memory.load m a)
          | Store a -> Sim_memory.store m a 1
          | Read (a, n) -> Sim_memory.read_bytes m a n
          | Write (a, n) -> Sim_memory.write_bytes m a n
          | Source s -> Sim_memory.set_source m s)
        ops;
      Sim_memory.flush m;
      List.rev !got = reference_batches ops)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "memsim"
    [
      ( "addr",
        [
          Alcotest.test_case "align_up" `Quick test_addr_align_up;
          Alcotest.test_case "align_down" `Quick test_addr_align_down;
          Alcotest.test_case "predicates" `Quick test_addr_predicates;
          Alcotest.test_case "indices" `Quick test_addr_indices;
          Alcotest.test_case "index tables reject min_int" `Quick
            test_index_tables_reject_sentinel;
        ]
        @ qsuite
            [ prop_align_up_is_aligned;
              prop_align_down_is_aligned;
              prop_index_tables_match_hashtbl ] );
      ( "event",
        [
          Alcotest.test_case "constructors" `Quick test_event_constructors;
          Alcotest.test_case "pp" `Quick test_event_pp;
        ] );
      ( "sink",
        [
          Alcotest.test_case "counter" `Quick test_sink_counter;
          Alcotest.test_case "fanout" `Quick test_sink_fanout;
          Alcotest.test_case "fanout three" `Quick test_sink_fanout_three;
          Alcotest.test_case "counter reset" `Quick test_sink_counter_reset;
        ] );
      ( "region",
        [
          Alcotest.test_case "extend" `Quick test_region_extend;
          Alcotest.test_case "contains" `Quick test_region_contains;
          Alcotest.test_case "overflow" `Quick test_region_overflow;
          Alcotest.test_case "layout disjoint" `Quick test_layout_disjoint;
        ] );
      ( "trace_file",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "rejects foreign" `Quick
            test_trace_rejects_foreign;
          Alcotest.test_case "truncation detected" `Quick
            test_trace_truncation_detected;
          Alcotest.test_case "compactness" `Quick test_trace_compactness;
          Alcotest.test_case "corrupt flags located" `Quick
            test_trace_corrupt_offset;
          Alcotest.test_case "truncated event located" `Quick
            test_trace_truncated_offset;
          Alcotest.test_case "per-event bounds located" `Quick
            test_trace_bounds_located;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_trace_roundtrip_random ]
      );
      ( "trace_sources",
        [
          Alcotest.test_case "empty text" `Quick test_text_empty;
          Alcotest.test_case "crlf and mixed case" `Quick
            test_text_crlf_mixed_case;
          Alcotest.test_case "wide address" `Quick test_text_wide_address;
          Alcotest.test_case "errors locate line" `Quick
            test_text_errors_locate_line;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "sniff" `Quick test_source_sniff;
        ]
        @ qsuite [ prop_text_csv_text_roundtrip ]
        @ [ Alcotest.test_case "writers cross 10^4 rows" `Quick
              test_writers_cross_ten_thousand ]
        @ qsuite
            [ prop_writers_match_printf;
              prop_text_reader_matches_reference;
              prop_csv_reader_matches_reference;
              prop_text_errors_match_reference;
              prop_csv_errors_match_reference ]
        @ [ Alcotest.test_case "csv index is the row's ordinal" `Quick
              test_csv_index_is_the_ordinal ] );
      ( "sim_memory",
        [
          Alcotest.test_case "load/store" `Quick test_mem_load_store;
          Alcotest.test_case "emits events" `Quick test_mem_emits_events;
          Alcotest.test_case "source attribution" `Quick
            test_mem_source_attribution;
          Alcotest.test_case "with_source restores on raise" `Quick
            test_mem_with_source_restores_on_raise;
          Alcotest.test_case "ranged word grain" `Quick
            test_mem_ranged_word_grain;
          Alcotest.test_case "ranged zero" `Quick test_mem_ranged_zero;
          Alcotest.test_case "peek/poke silent" `Quick
            test_mem_peek_poke_silent;
          Alcotest.test_case "page boundary" `Quick test_mem_page_boundary;
          Alcotest.test_case "peek/poke on an unallocated page" `Quick
            test_mem_peek_poke_unallocated;
          Alcotest.test_case "rejects unaligned" `Quick
            test_mem_rejects_unaligned;
        ]
        @ qsuite [ prop_ranged_covers_exactly; prop_store_load_roundtrip ] );
      ( "packed",
        [
          Alcotest.test_case "meta layout" `Quick test_packed_meta_layout;
          Alcotest.test_case "batch basics" `Quick test_batch_basics;
          Alcotest.test_case "trace buffer roundtrip" `Quick
            test_trace_buffer_roundtrip;
          Alcotest.test_case "trace buffer rejects" `Quick
            test_trace_buffer_rejects;
          Alcotest.test_case "sim_memory internal batching" `Quick
            test_mem_internal_batching;
        ]
        @ qsuite
            [ prop_packed_roundtrip;
              prop_packed_counter_checksum_differential;
              prop_mem_emission_matches_reference ] );
    ]
