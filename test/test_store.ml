(* Tests for the typed-artifact result path: codec primitives, the
   artifact schema round-trip, the persistent content-addressed store
   (including corruption handling and gc), write-through/read-back via
   the run grid, and the cold-vs-warm differential over every
   experiment. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Infrastructure: counting Logs reporter, temp dirs, file mangling   *)
(* ------------------------------------------------------------------ *)

(* Corruption must be *reported*, not silent: every degraded read logs
   a warning on loclab.store / loclab.runs, and these tests count
   them. *)
let warn_count = ref 0

let counting_reporter =
  { Logs.report =
      (fun _src level ~over k msgf ->
        (match level with Logs.Warning -> incr warn_count | _ -> ());
        msgf (fun ?header:_ ?tags:_ fmt ->
            Format.ikfprintf (fun _ -> over (); k ()) Format.err_formatter fmt))
  }

let () =
  Logs.set_reporter counting_reporter;
  Logs.set_level (Some Logs.Warning)

let made_dirs = ref []

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "loclab-test-store-%d-%d" (Unix.getpid ()) !counter)
    in
    made_dirs := dir :: !made_dirs;
    dir

(* Stores nest their derived namespace in a sub-directory. *)
let rec remove_tree path =
  if Sys.file_exists path && Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    try Unix.rmdir path with Unix.Unix_error _ -> ()
  end
  else try Sys.remove path with Sys_error _ -> ()

let cleanup_dirs () = List.iter remove_tree !made_dirs

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let flip_byte path off =
  let s = Bytes.of_string (read_file path) in
  let off = min off (Bytes.length s - 1) in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0x5A));
  write_file path (Bytes.to_string s)

let truncate_file path =
  let s = read_file path in
  write_file path (String.sub s 0 (String.length s / 2))

let cell_path store ~program ~allocator ~scale =
  let seed = (Workload.Programs.find program).Workload.Profile.seed in
  let digest = Core.Artifact.digest ~program ~allocator ~scale ~seed in
  Filename.concat (Store.root store) (digest ^ ".art")

(* ------------------------------------------------------------------ *)
(* Codec primitives                                                   *)
(* ------------------------------------------------------------------ *)

let test_crc32_vector () =
  (* The canonical IEEE 802.3 check value. *)
  check_int "crc32(123456789)" 0xCBF43926 (Binio.crc32 "123456789");
  check_int "crc32 of empty" 0 (Binio.crc32 "")

(* The byte-at-a-time definition slicing-by-8 must reproduce. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let reference_crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := crc_table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let random_bytes st n = String.init n (fun _ -> Char.chr (Random.State.int st 256))

(* Every length 0-64 and every substring of a 72-byte string (each
   alignment and each tail length of the eight-byte steps), then random
   strings up to 64 KiB, whole and at random [?off]/[?len]. *)
let test_crc32_matches_reference () =
  let st = Random.State.make [| 36 |] in
  let s = random_bytes st 72 in
  for len = 0 to 64 do
    let prefix = String.sub s 0 len in
    check_int (Printf.sprintf "length %d" len) (reference_crc32 prefix)
      (Binio.crc32 prefix)
  done;
  for off = 0 to String.length s do
    for len = 0 to String.length s - off do
      let expected = reference_crc32 (String.sub s off len) in
      if Binio.crc32 ~off ~len s <> expected then
        Alcotest.failf "crc32 ~off:%d ~len:%d differs from the reference" off len
    done;
    check_int (Printf.sprintf "from %d to the end" off)
      (reference_crc32 (String.sub s off (String.length s - off)))
      (Binio.crc32 ~off s)
  done;
  for _ = 1 to 40 do
    let n = Random.State.int st (64 * 1024 + 1) in
    let s = random_bytes st n in
    check_int (Printf.sprintf "%d random bytes" n) (reference_crc32 s)
      (Binio.crc32 s);
    let off = Random.State.int st (n + 1) in
    let len = Random.State.int st (n - off + 1) in
    check_int
      (Printf.sprintf "%d of %d random bytes at %d" len n off)
      (reference_crc32 (String.sub s off len))
      (Binio.crc32 ~off ~len s)
  done;
  List.iter
    (fun (off, len) ->
      check_bool
        (Printf.sprintf "~off:%d ~len:%d of 8 bytes refused" off len)
        true
        (match Binio.crc32 ~off ~len "12345678" with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ (-1, 2); (0, 9); (8, 1); (3, -1); (max_int, 1) ]

let prop_codec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"codec field-sequence round-trip"
    QCheck.(
      quad (list small_signed_int)
        (list (string_gen Gen.(map Char.chr (int_range 0 255))))
        (list bool)
        (list (array_of_size Gen.(0 -- 10) small_signed_int)))
    (fun (ints, strings, bools, arrays) ->
      let w = Binio.Writer.create () in
      List.iter (Binio.Writer.int w) ints;
      List.iter (Binio.Writer.string w) strings;
      List.iter (Binio.Writer.bool w) bools;
      List.iter (Binio.Writer.int_array w) arrays;
      Binio.Writer.list w (Binio.Writer.int w) ints;
      let r = Binio.Reader.of_string (Binio.Writer.contents w) in
      let ints' = List.map (fun _ -> Binio.Reader.int r) ints in
      let strings' = List.map (fun _ -> Binio.Reader.string r) strings in
      let bools' = List.map (fun _ -> Binio.Reader.bool r) bools in
      let arrays' =
        List.map (fun _ -> Binio.Reader.int_array r) arrays
      in
      let ints'' = Binio.Reader.list r Binio.Reader.int in
      ints = ints' && strings = strings' && bools = bools' && arrays = arrays'
      && ints = ints''
      && Binio.Reader.at_end r)

let prop_codec_float_bits =
  QCheck.Test.make ~count:200 ~name:"codec floats round-trip bitwise"
    QCheck.float (fun f ->
      let w = Binio.Writer.create () in
      Binio.Writer.float w f;
      let r = Binio.Reader.of_string (Binio.Writer.contents w) in
      Int64.bits_of_float (Binio.Reader.float r) = Int64.bits_of_float f)

let test_codec_truncation_raises () =
  let w = Binio.Writer.create () in
  Binio.Writer.int w 42;
  Binio.Writer.string w "hello";
  let payload = Binio.Writer.contents w in
  for cut = 0 to String.length payload - 1 do
    let r = Binio.Reader.of_string (String.sub payload 0 cut) in
    check_bool
      (Printf.sprintf "cut at %d detected" cut)
      true
      (match
         let _ = Binio.Reader.int r in
         let _ = Binio.Reader.string r in
         ()
       with
      | exception Binio.Error _ -> true
      | () -> false)
  done

(* ------------------------------------------------------------------ *)
(* Artifact codec                                                     *)
(* ------------------------------------------------------------------ *)

let stats_of_list = function
  | [ a; m; ra; rm; wa; wm; cm; wb; aa; am; ma; mm; fa; fm ] ->
      { Cachesim.Stats.accesses = a; misses = m; read_accesses = ra;
        read_misses = rm; write_accesses = wa; write_misses = wm;
        cold_misses = cm; writebacks = wb; app_accesses = aa; app_misses = am;
        malloc_accesses = ma; malloc_misses = mm; free_accesses = fa;
        free_misses = fm }
  | _ -> assert false

let alloc_stats_of_list = function
  | [ mc; fc; rc; rm; br; bg; lb; mlb; lo; mlo ] ->
      { Allocators.Alloc_stats.malloc_calls = mc; free_calls = fc;
        realloc_calls = rc; realloc_moves = rm; bytes_requested = br;
        bytes_granted = bg; live_bytes = lb; max_live_bytes = mlb;
        live_objects = lo; max_live_objects = mlo }
  | _ -> assert false

let summary_of_list = function
  | [ sr; i; ai; mi; fi; dr; ar; alr; hu; mlb ] ->
      { Core.Artifact.steps_run = sr; instructions = i; app_instructions = ai;
        malloc_instructions = mi; free_instructions = fi; data_refs = dr;
        app_refs = ar; allocator_refs = alr; heap_used = hu;
        max_live_bytes = mlb }
  | _ -> assert false

(* Configurations must satisfy Config.make's invariants, so draw from a
   valid pool rather than generating fields. *)
let config_pool =
  [ Cachesim.Config.make (16 * 1024);
    Cachesim.Config.make ~associativity:2 (16 * 1024);
    Cachesim.Config.make ~block_bytes:64 (64 * 1024);
    Cachesim.Config.make ~name:"odd name \"quoted\"" (32 * 1024);
    Cachesim.Config.make ~associativity:8 ~policy:Cachesim.Policy.Plru
      (16 * 1024);
    Cachesim.Config.make ~associativity:4
      ~policy:(Cachesim.Policy.Qlru Cachesim.Policy.qlru_h11_m1) (32 * 1024);
    Cachesim.Config.make ~associativity:2
      ~policy:(Cachesim.Policy.Qlru Cachesim.Policy.qlru_h00_m1) (8 * 1024) ]

let gen_artifact =
  let open QCheck.Gen in
  let nonneg = int_bound 1_000_000 in
  let key = string_size ~gen:(map Char.chr (int_range 97 122)) (1 -- 12) in
  let scale = map (fun i -> float_of_int i /. 100.) (int_range 1 400) in
  let stats = map stats_of_list (list_repeat 14 nonneg) in
  key >>= fun program ->
  key >>= fun allocator ->
  scale >>= fun scale ->
  nonneg >>= fun seed ->
  nonneg >>= fun trace_checksum ->
  oneofl [ "synthetic"; "text"; "csv"; "binary" ]
  >>= fun source_format ->
  nonneg >>= fun source_bytes ->
  nonneg >>= fun source_checksum ->
  map summary_of_list (list_repeat 10 nonneg) >>= fun summary ->
  map alloc_stats_of_list (list_repeat 10 nonneg) >>= fun alloc_stats ->
  int_range 1 (List.length config_pool) >>= fun ncfg ->
  list_repeat ncfg stats >>= fun cache_stats ->
  oneofl [ 512; 4096; 8192 ] >>= fun page_bytes ->
  nonneg >>= fun references ->
  nonneg >>= fun cold ->
  array_size (0 -- 40) nonneg >>= fun hist ->
  let caches =
    List.map2
      (fun c s -> (c, s))
      (List.filteri (fun i _ -> i < ncfg) config_pool)
      cache_stats
  in
  return
    { Core.Artifact.meta =
        { Core.Artifact.program; allocator; scale; seed;
          schema_version = Core.Artifact.schema_version; trace_checksum };
      provenance =
        { Core.Artifact.source_format; source_bytes; source_checksum };
      summary; alloc_stats; caches;
      fault_curve = { Vmsim.Fault_curve.page_bytes; references; cold; hist } }

let prop_artifact_roundtrip =
  QCheck.Test.make ~count:100 ~name:"Artifact encode/decode identity"
    (QCheck.make gen_artifact) (fun art ->
      match Core.Artifact.decode (Core.Artifact.encode art) with
      | Ok art' -> Core.Artifact.equal art art'
      | Error _ -> false)

let prop_artifact_meta_readable =
  QCheck.Test.make ~count:100 ~name:"decode_meta reads the frozen header"
    (QCheck.make gen_artifact) (fun art ->
      match Core.Artifact.decode_meta (Core.Artifact.encode art) with
      | Ok m -> m = art.Core.Artifact.meta
      | Error _ -> false)

let sample_artifact =
  (* One real artifact from a tiny simulation, for targeted cases. *)
  lazy
    (let runs = Core.Runs.create ~scale:0.01 () in
     Core.Runs.get runs ~profile:"make" ~allocator:"bsd")

let test_artifact_rejects_truncation () =
  let art = Lazy.force sample_artifact in
  let payload = Core.Artifact.encode art in
  List.iter
    (fun frac ->
      let cut = String.length payload * frac / 10 in
      check_bool
        (Printf.sprintf "truncated at %d/10 rejected" frac)
        true
        (match Core.Artifact.decode (String.sub payload 0 cut) with
        | Error _ -> true
        | Ok _ -> false))
    [ 0; 3; 6; 9 ]

let test_artifact_rejects_trailing_garbage () =
  let art = Lazy.force sample_artifact in
  check_bool "trailing byte rejected" true
    (match Core.Artifact.decode (Core.Artifact.encode art ^ "\000") with
    | Error _ -> true
    | Ok _ -> false)

let test_artifact_rejects_foreign_schema () =
  let art = Lazy.force sample_artifact in
  let foreign =
    { art with
      Core.Artifact.meta =
        { art.Core.Artifact.meta with
          Core.Artifact.schema_version = Core.Artifact.schema_version + 1 } }
  in
  let payload = Core.Artifact.encode foreign in
  check_bool "foreign schema rejected by decode" true
    (match Core.Artifact.decode payload with Error _ -> true | Ok _ -> false);
  (* ... but the frozen header stays readable for ls/gc. *)
  check_bool "foreign schema readable by decode_meta" true
    (match Core.Artifact.decode_meta payload with
    | Ok m ->
        m.Core.Artifact.schema_version = Core.Artifact.schema_version + 1
    | Error _ -> false)

let test_digest_sensitivity () =
  let d = Core.Artifact.digest ~program:"p" ~allocator:"a" ~scale:0.5 ~seed:7 in
  check_string "deterministic" d
    (Core.Artifact.digest ~program:"p" ~allocator:"a" ~scale:0.5 ~seed:7);
  List.iter
    (fun (label, d') -> check_bool label true (d <> d'))
    [ ("program", Core.Artifact.digest ~program:"q" ~allocator:"a" ~scale:0.5 ~seed:7);
      ("allocator", Core.Artifact.digest ~program:"p" ~allocator:"b" ~scale:0.5 ~seed:7);
      ("scale", Core.Artifact.digest ~program:"p" ~allocator:"a" ~scale:0.25 ~seed:7);
      ("seed", Core.Artifact.digest ~program:"p" ~allocator:"a" ~scale:0.5 ~seed:8) ]

(* Content addresses are forever: a store filled by any earlier build
   must still be found.  These keys and digests were computed with the
   Printf-built keys ("loclab-cell|%s|%s|%h|%d|%d",
   "loclab-derived|%s|%h|%d|%s") the digests used to be made from; the
   cell pins at artifact schema 6, whose number is part of the key. *)
let test_digests_pinned () =
  List.iter
    (fun (program, allocator, scale, seed, hex) ->
      check_string
        (Printf.sprintf "cell %S %S %h %d" program allocator scale seed)
        hex
        (Core.Artifact.digest ~program ~allocator ~scale ~seed))
    [ ("espresso", "bsd", 0.25, 1, "d2734066c22fb4e31e1e536b0e9a314f");
      ("gs-large", "quickfit", 0.002, 42, "6ccff8afc1f843413a9e0d68280c7ceb");
      ("trace:0123", "custom", 0.1, -7, "9ed8bd40f588aed0709c1c21a76f534a");
      ("", "", -0., 0, "d8603f300de039485fe324a94daa3c8f");
      ("x", "y", 1e-310, max_int, "65cccc3eb54550d5b009b3f2e446004e") ];
  List.iter
    (fun (id, scale, inputs, hex) ->
      check_string
        (Printf.sprintf "derived %S %h %S" id scale inputs)
        hex
        (Core.Derived.digest_of_meta
           { Core.Derived.id; scale; schema_version = 2; inputs }))
    [ ("tabcpu", 0.25, "espresso,gs-large|bsd,quickfit",
       "2b877313da084a814c067bbdb6eb4fea");
      ("abl-flush", 0.002, "", "4ca0e49e3bf1371ffeb60ad7f4db1e87");
      ("abl-lifetime", 3.0, "a|b|c", "f10577c9416ccd80be481f341647188d") ];
  check_int "artifact schema the cell pins were taken at" 6
    Core.Artifact.schema_version;
  check_int "derived schema the derived pins were taken at" 2
    Core.Derived.schema_version

(* ------------------------------------------------------------------ *)
(* Store                                                              *)
(* ------------------------------------------------------------------ *)

let prop_store_roundtrip =
  QCheck.Test.make ~count:50 ~name:"store write/read is bit-identical"
    QCheck.(
      pair (string_gen Gen.(map Char.chr (int_range 0 255)))
        (string_gen Gen.(map Char.chr (int_range 97 122))))
    (fun (payload, key) ->
      QCheck.assume (key <> "");
      let store = Store.open_ (fresh_dir ()) in
      let digest = Digest.to_hex (Digest.string key) in
      Store.put store ~digest payload;
      match Store.find store ~digest with
      | Store.Hit payload' -> payload' = payload && Store.mem store ~digest
      | Store.Miss | Store.Corrupt _ -> false)

let test_store_miss () =
  let store = Store.open_ (fresh_dir ()) in
  check_bool "empty store misses" true
    (Store.find store ~digest:"deadbeef" = Store.Miss);
  check_bool "mem false" false (Store.mem store ~digest:"deadbeef");
  check_int "ls empty" 0 (List.length (Store.ls store))

let test_store_detects_flipped_byte () =
  let store = Store.open_ (fresh_dir ()) in
  Store.put store ~digest:"cell1" "some payload bytes";
  let path = Filename.concat (Store.root store) "cell1.art" in
  (* Flip a byte inside the payload region (past the 16-byte header). *)
  let before = !warn_count in
  flip_byte path 20;
  check_bool "flipped byte detected" true
    (match Store.find store ~digest:"cell1" with
    | Store.Corrupt _ -> true
    | Store.Hit _ | Store.Miss -> false);
  check_bool "corruption logged" true (!warn_count > before)

let test_store_detects_truncation () =
  let store = Store.open_ (fresh_dir ()) in
  Store.put store ~digest:"cell2" "a somewhat longer payload, to survive halving";
  let path = Filename.concat (Store.root store) "cell2.art" in
  truncate_file path;
  check_bool "truncation detected" true
    (match Store.find store ~digest:"cell2" with
    | Store.Corrupt _ -> true
    | Store.Hit _ | Store.Miss -> false)

let test_store_detects_garbage_file () =
  let store = Store.open_ (fresh_dir ()) in
  write_file (Filename.concat (Store.root store) "cell3.art") "not a frame";
  check_bool "garbage detected" true
    (match Store.find store ~digest:"cell3" with
    | Store.Corrupt _ -> true
    | Store.Hit _ | Store.Miss -> false)

let test_store_overwrite_and_ls () =
  let store = Store.open_ (fresh_dir ()) in
  Store.put store ~digest:"aa" "one";
  Store.put store ~digest:"aa" "two";
  Store.put store ~digest:"bb" "three";
  check_bool "overwrite wins" true
    (Store.find store ~digest:"aa" = Store.Hit "two");
  Alcotest.(check (list string)) "ls sorted" [ "aa"; "bb" ] (Store.ls store)

(* test/frames/cell.art is a store cell (espresso/bsd at scale 0.002)
   as the byte-at-a-time CRC and the channel reader's store wrote it:
   it must be found, verified and re-written byte for byte, and a
   flipped byte must be reported as it always was. *)
(* A checked-in file under test/frames, found from the test directory
   (dune test) or from the repository root (dune exec). *)
let frame_file name =
  let here = Filename.concat "frames" name in
  if Sys.file_exists here then here else Filename.concat "test/frames" name

let checked_in_digest = "1fdc6d4bf0a0ca218d41b15b897f852c"

let test_store_reads_checked_in_cell () =
  let cell = read_file (frame_file "cell.art") in
  let root = fresh_dir () in
  let store = Store.open_ root in
  let file = Filename.concat root (checked_in_digest ^ ".art") in
  write_file file cell;
  let payload =
    match Store.find store ~digest:checked_in_digest with
    | Store.Hit p -> p
    | Store.Miss -> Alcotest.fail "checked-in cell missed"
    | Store.Corrupt r -> Alcotest.failf "checked-in cell corrupt: %s" r
  in
  check_string "the payload is the frame's middle"
    (String.sub cell 16 (String.length cell - 24))
    payload;
  let again = Store.open_ (fresh_dir ()) in
  Store.put again ~digest:checked_in_digest payload;
  check_string "re-written byte for byte" cell
    (read_file (Filename.concat (Store.root again) (checked_in_digest ^ ".art")));
  check_int "its CRC trailer" 0x930c616b (Binio.crc32 payload);
  let warns = !warn_count in
  List.iter
    (fun (off, reason) ->
      flip_byte file off;
      (match Store.find store ~digest:checked_in_digest with
      | Store.Corrupt r -> check_string (Printf.sprintf "byte %d flipped" off) reason r
      | _ -> Alcotest.failf "byte %d flipped: not reported corrupt" off);
      write_file file cell)
    [ (0, "bad magic (not a loclab artifact, or an incompatible frame)");
      (9, "bad frame length 21283 for a 2363-byte file");
      (100, "CRC mismatch (stored 0x930c616b, computed 0xf60a8a8d)");
      (2362, "CRC mismatch (stored 0x5a000000930c616b, computed 0x930c616b)") ];
  check_int "each corruption logged" (warns + 4) !warn_count

let test_store_verify_and_gc () =
  let store = Store.open_ (fresh_dir ()) in
  Store.put store ~digest:"good" "healthy payload";
  Store.put store ~digest:"bad" "will be corrupted soon";
  Store.put store ~digest:"unwanted" "keep says no";
  flip_byte (Filename.concat (Store.root store) "bad.art") 20;
  write_file (Filename.concat (Store.root store) "leftover.art.tmp") "junk";
  let verdicts =
    List.map (fun digest -> (digest, Store.find store ~digest)) (Store.ls store)
  in
  check_int "verify covers all cells" 3 (List.length verdicts);
  check_bool "good verifies" true
    (match List.assoc "good" verdicts with Store.Hit _ -> true | _ -> false);
  check_bool "bad fails verify" true
    (match List.assoc "bad" verdicts with Store.Corrupt _ -> true | _ -> false);
  let removed =
    Store.gc store ~keep:(fun ~digest ~payload:_ -> digest <> "unwanted")
  in
  Alcotest.(check (list string))
    "gc removes corrupt, rejected, and temp files"
    [ "bad.art"; "leftover.art.tmp"; "unwanted.art" ]
    removed;
  Alcotest.(check (list string)) "only good survives" [ "good" ] (Store.ls store);
  check_bool "good still readable" true
    (Store.find store ~digest:"good" = Store.Hit "healthy payload")

(* ------------------------------------------------------------------ *)
(* Run grid + store: write-through, warm reads, healing               *)
(* ------------------------------------------------------------------ *)

let test_runs_write_through_and_warm_read () =
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  let cold = Core.Runs.create ~scale:0.01 ~store () in
  let a = Core.Runs.get cold ~profile:"make" ~allocator:"bsd" in
  check_int "cold run simulated" 1 (Core.Runs.simulated cold);
  check_int "cold run had no hits" 0 (Core.Runs.store_hits cold);
  check_bool "cell file exists" true
    (Sys.file_exists (cell_path store ~program:"make" ~allocator:"bsd" ~scale:0.01));
  let warm = Core.Runs.create ~scale:0.01 ~store:(Store.open_ dir) () in
  let b = Core.Runs.get warm ~profile:"make" ~allocator:"bsd" in
  check_int "warm run simulated nothing" 0 (Core.Runs.simulated warm);
  check_int "warm run hit the store" 1 (Core.Runs.store_hits warm);
  check_bool "artifacts identical" true (Core.Artifact.equal a b);
  check_string "encodings identical"
    (Core.Artifact.encode a) (Core.Artifact.encode b)

let test_runs_corrupt_cell_resimulated_and_healed () =
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  let cold = Core.Runs.create ~scale:0.01 ~store () in
  let a = Core.Runs.get cold ~profile:"gawk" ~allocator:"quickfit" in
  let path = cell_path store ~program:"gawk" ~allocator:"quickfit" ~scale:0.01 in
  flip_byte path 40;
  let before = !warn_count in
  let again = Core.Runs.create ~scale:0.01 ~store:(Store.open_ dir) () in
  let b = Core.Runs.get again ~profile:"gawk" ~allocator:"quickfit" in
  check_int "corrupt cell re-simulated" 1 (Core.Runs.simulated again);
  check_int "corrupt cell is not a hit" 0 (Core.Runs.store_hits again);
  check_bool "corruption logged" true (!warn_count > before);
  check_bool "re-simulation reproduces the artifact" true
    (Core.Artifact.equal a b);
  (* The degraded read healed the store: a third pass hits again. *)
  let healed = Core.Runs.create ~scale:0.01 ~store:(Store.open_ dir) () in
  let c = Core.Runs.get healed ~profile:"gawk" ~allocator:"quickfit" in
  check_int "healed store hits" 1 (Core.Runs.store_hits healed);
  check_bool "healed artifact identical" true (Core.Artifact.equal a c)

let test_runs_scale_partitions_store () =
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  let r1 = Core.Runs.create ~scale:0.01 ~store () in
  ignore (Core.Runs.get r1 ~profile:"make" ~allocator:"bsd");
  (* Same store, different scale: different digest, so a miss. *)
  let r2 = Core.Runs.create ~scale:0.02 ~store:(Store.open_ dir) () in
  ignore (Core.Runs.get r2 ~profile:"make" ~allocator:"bsd");
  check_int "different scale simulates" 1 (Core.Runs.simulated r2);
  check_int "different scale does not hit" 0 (Core.Runs.store_hits r2);
  check_int "store now holds both" 2 (List.length (Store.ls store))

let test_runs_load_reports_missing () =
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  let r1 = Core.Runs.create ~scale:0.01 ~store () in
  ignore (Core.Runs.get r1 ~profile:"make" ~allocator:"bsd");
  let r2 = Core.Runs.create ~scale:0.01 ~store:(Store.open_ dir) () in
  let missing =
    Core.Runs.load r2
      [ ("make", "bsd"); ("make", "bsd"); ("gawk", "bsd"); ("make", "bsd") ]
  in
  Alcotest.(check (list (pair string string)))
    "only the cold cell is missing, deduplicated"
    [ ("gawk", "bsd") ] missing;
  check_int "the warm cell was pulled in" 1 (Core.Runs.store_hits r2);
  check_int "nothing simulated by load" 0 (Core.Runs.simulated r2)

let test_ingest_write_through_and_warm_read () =
  (* External cells persist like grid cells: a second grid over the
     same store answers the ingest from disk, byte-identically — even
     when the re-import arrives in a different capture format. *)
  let text = "R 0x1000\nW 0x1020\nR 0x1000\nW 0x20000\n" in
  let dir = fresh_dir () in
  let cold = Core.Runs.create ~store:(Store.open_ dir) () in
  let a =
    Core.Runs.ingest cold ~format:Memsim.Trace.Source.Text ~data:text
  in
  check_int "cold ingest simulated" 1 (Core.Runs.simulated cold);
  let csv =
    Memsim.Trace.write Memsim.Trace.Source.Csv (fun sink ->
        ignore (Memsim.Trace.read Memsim.Trace.Source.Text text sink))
  in
  let warm = Core.Runs.create ~store:(Store.open_ dir) () in
  let b =
    Core.Runs.ingest warm ~format:Memsim.Trace.Source.Csv ~data:csv
  in
  check_int "warm ingest simulated nothing" 0 (Core.Runs.simulated warm);
  check_int "warm ingest hit the store" 1 (Core.Runs.store_hits warm);
  check_bool "artifacts identical" true (Core.Artifact.equal a b);
  check_string "encodings identical"
    (Core.Artifact.encode a) (Core.Artifact.encode b);
  (* Schema v3 provenance round-trips through the store. *)
  check_string "provenance format survives" "text"
    b.Core.Artifact.provenance.Core.Artifact.source_format

(* ------------------------------------------------------------------ *)
(* Differential: cold vs warm rendering over every experiment         *)
(* ------------------------------------------------------------------ *)

let test_differential_cold_vs_warm () =
  let dir = fresh_dir () in
  let cold_ctx =
    Core.Context.create ~scale:0.02 ~jobs:2 ~store:(Store.open_ dir) ()
  in
  let cold_out =
    List.map (fun id -> (id, Core.Experiment.run cold_ctx id))
      (Core.Experiment.ids ())
  in
  check_bool "cold pass simulated the grid" true
    (Core.Runs.simulated cold_ctx.Core.Context.runs > 0);
  (* A fresh context over the same store: everything the experiments
     need must already be present... *)
  let warm_ctx =
    Core.Context.create ~scale:0.02 ~jobs:2 ~store:(Store.open_ dir) ()
  in
  let wanted =
    List.concat_map
      (fun e -> e.Core.Experiment.cells)
      Core.Experiment.all
  in
  Alcotest.(check (list (pair string string)))
    "no cell missing from the warm store" []
    (Core.Runs.load warm_ctx.Core.Context.runs wanted);
  (* ... every rendering must be byte-identical... *)
  List.iter
    (fun (id, cold) ->
      check_string (id ^ " warm = cold") cold (Core.Experiment.run warm_ctx id))
    cold_out;
  (* ... and the warm pass must not have simulated anything: no grid
     cell, and none of the off-grid experiments' derived cells. *)
  let warm = warm_ctx.Core.Context.runs in
  check_int "warm pass simulated no grid cell" 0 (Core.Runs.simulated warm);
  check_int "warm pass computed no derived cell" 0
    (Core.Runs.derived_computed warm);
  check_bool "warm pass fed from the store" true
    (Core.Runs.store_hits warm > 0);
  check_int "every derived cell read from the store"
    (Core.Runs.derived_computed cold_ctx.Core.Context.runs)
    (Core.Runs.derived_hits warm);
  check_int "the four derived cells: tabcpu, abl-sweep, abl-flush, abl-lifetime" 4
    (Core.Runs.derived_hits warm)

(* --cpu picks the preset tabcpu details at render time; it is not part
   of the derived cell, so a store filled under one preset serves
   another without recomputing, with the bytes of a cold render. *)
let test_derived_cpu_applies_at_render () =
  let dir = fresh_dir () in
  let ctx ?store cpu = Core.Context.create ~scale:0.02 ?store ~cpu () in
  let skylake = ctx ~store:(Store.open_ dir) Cachesim.Cpu.skylake in
  let skylake_out = Core.Experiment.run skylake "tabcpu" in
  check_int "the skylake pass computed the cell" 1
    (Core.Runs.derived_computed skylake.Core.Context.runs);
  let warm = ctx ~store:(Store.open_ dir) Cachesim.Cpu.haswell in
  let warm_out = Core.Experiment.run warm "tabcpu" in
  check_int "haswell from a skylake store computes nothing" 0
    (Core.Runs.derived_computed warm.Core.Context.runs);
  check_int "haswell read the stored cell" 1
    (Core.Runs.derived_hits warm.Core.Context.runs);
  check_string "warm haswell = cold haswell"
    (Core.Experiment.run (ctx Cachesim.Cpu.haswell) "tabcpu")
    warm_out;
  check_bool "the preset changes the rendering" true (warm_out <> skylake_out)

(* ------------------------------------------------------------------ *)
(* Derived namespace: one validation rule for readers and gc          *)
(* ------------------------------------------------------------------ *)

let derived_namespace =
  List.find
    (fun (ns : Core.Runs.namespace) -> ns.name = "derived")
    Core.Runs.namespaces

let test_derived_gc_and_heal () =
  let dir = fresh_dir () in
  let ids = [ "tabcpu"; "abl-flush"; "abl-lifetime" ] in
  let render () =
    let ctx = Core.Context.create ~scale:0.01 ~store:(Store.open_ dir) () in
    (ctx.Core.Context.runs, List.map (Core.Experiment.run ctx) ids)
  in
  let cold, cold_out = render () in
  check_int "cold render computed each derived cell" 3
    (Core.Runs.derived_computed cold);
  let derived = derived_namespace.locate (Store.open_ dir) in
  (* abl-lifetime reads its QuickFit and GNU local rows from grid cells;
     the grid namespace holds exactly those, and nothing else. *)
  let cell (program, allocator) =
    Core.Artifact.digest ~program ~allocator ~scale:0.01
      ~seed:(Workload.Programs.find program).Workload.Profile.seed
  in
  Alcotest.(check (list string))
    "grid namespace: abl-lifetime's cells"
    (List.sort compare
       (List.map cell
          [ ("gawk", "quickfit"); ("gawk", "gnu-local");
            ("espresso", "quickfit"); ("espresso", "gnu-local") ]))
    (Store.ls (Store.open_ dir));
  let cells =
    List.map
      (fun digest ->
        match Store.find derived ~digest with
        | Store.Hit payload -> (
            match Core.Derived.decode payload with
            | Ok d -> (d.Core.Derived.meta.Core.Derived.id, (digest, d))
            | Error e -> Alcotest.failf "derived %s: %s" digest e)
        | _ -> Alcotest.failf "derived %s unreadable" digest)
      (Store.ls derived)
  in
  let digest id = fst (List.assoc id cells) in
  let file id = Filename.concat (Store.root derived) (digest id ^ ".art") in
  let lifetime = snd (List.assoc "abl-lifetime" cells) in
  Alcotest.(check (list (pair string string)))
    "abl-lifetime keeps only the rows the grid cannot run"
    [ ("gawk", "predictive"); ("gawk", "custom"); ("espresso", "predictive");
      ("espresso", "custom") ]
    (List.map
       (fun (r : Core.Derived.row) -> (r.program, r.variant))
       lifetime.Core.Derived.rows);
  (* Corrupt: a flipped byte fails the frame CRC. *)
  flip_byte (file "tabcpu") 20;
  (* Misfiled: another experiment's payload under abl-flush's digest. *)
  Store.put derived ~digest:(digest "abl-flush") (Core.Derived.encode lifetime);
  (* Stale: a readable header of another schema version. *)
  Store.put derived ~digest:(digest "abl-lifetime")
    (Core.Derived.encode
       { lifetime with
         Core.Derived.meta =
           { lifetime.Core.Derived.meta with
             Core.Derived.schema_version = Core.Derived.schema_version + 1 } });
  let verdict id =
    match Store.find derived ~digest:(digest id) with
    | Store.Hit payload -> (
        match derived_namespace.check ~digest:(digest id) payload with
        | Ok () -> "ok"
        | Error (Core.Runs.Stale _) -> "stale"
        | Error (Core.Runs.Invalid _) -> "invalid")
    | Store.Corrupt _ -> "corrupt"
    | Store.Miss -> "missing"
  in
  Alcotest.(check (list string))
    "verdicts" [ "corrupt"; "invalid"; "stale" ]
    (List.map verdict ids);
  let removed =
    Store.gc derived ~keep:(fun ~digest ~payload ->
        Result.is_ok (derived_namespace.check ~digest payload))
  in
  Alcotest.(check (list string))
    "gc removes all three"
    (List.sort compare (List.map (fun id -> digest id ^ ".art") ids))
    removed;
  (* The next render recomputes each one and writes it back... *)
  let healed, healed_out = render () in
  check_int "each recomputed" 3 (Core.Runs.derived_computed healed);
  Alcotest.(check (list string)) "same bytes" cold_out healed_out;
  Alcotest.(check (list string))
    "written back"
    (List.sort compare (List.map digest ids))
    (Store.ls derived);
  (* ... after which a render reads all three. *)
  let warm, _ = render () in
  check_int "warm computes nothing" 0 (Core.Runs.derived_computed warm);
  check_int "warm reads all three" 3 (Core.Runs.derived_hits warm)

(* ------------------------------------------------------------------ *)
(* Trace checksum                                                     *)
(* ------------------------------------------------------------------ *)

let test_checksum_orders_and_fields () =
  let feed events =
    let c = Memsim.Sink.Checksum.create () in
    Memsim.Sink.Checksum.sink c
      (Memsim.Event.Batch.of_events (Array.of_list events) (List.length events));
    Memsim.Sink.Checksum.value c
  in
  let e1 = Memsim.Event.read 0x1000 4 in
  let e2 = Memsim.Event.write ~source:Memsim.Event.Malloc 0x2000 8 in
  check_bool "deterministic" true (feed [ e1; e2 ] = feed [ e1; e2 ]);
  check_bool "order-sensitive" true (feed [ e1; e2 ] <> feed [ e2; e1 ]);
  check_bool "address-sensitive" true
    (feed [ e1 ] <> feed [ Memsim.Event.read 0x1004 4 ]);
  check_bool "size-sensitive" true
    (feed [ e1 ] <> feed [ Memsim.Event.read 0x1000 8 ]);
  check_bool "kind-sensitive" true
    (feed [ e1 ] <> feed [ Memsim.Event.write 0x1000 4 ]);
  check_bool "source-sensitive" true
    (feed [ e1 ] <> feed [ Memsim.Event.read ~source:Memsim.Event.Free 0x1000 4 ]);
  check_bool "empty trace nonzero basis" true (feed [] <> 0)

let tc name f = Alcotest.test_case name `Quick f
let qt t = QCheck_alcotest.to_alcotest t

let () =
  (* [Alcotest.run] ends in [exit], which runs [at_exit] handlers but
     no [Fun.protect] finaliser. *)
  at_exit cleanup_dirs;
  Alcotest.run "store"
    [
      ( "codec",
        [
          tc "crc32 known vector" test_crc32_vector;
          qt prop_codec_roundtrip;
          qt prop_codec_float_bits;
          tc "truncation raises" test_codec_truncation_raises;
          tc "crc32 equals the byte-at-a-time reference"
            test_crc32_matches_reference;
        ] );
      ( "artifact",
        [
          qt prop_artifact_roundtrip;
          qt prop_artifact_meta_readable;
          tc "rejects truncation" test_artifact_rejects_truncation;
          tc "rejects trailing garbage"
            test_artifact_rejects_trailing_garbage;
          tc "rejects foreign schema" test_artifact_rejects_foreign_schema;
          tc "digest sensitivity" test_digest_sensitivity;
          tc "digests pinned" test_digests_pinned;
        ] );
      ( "store",
        [
          qt prop_store_roundtrip;
          tc "miss on empty" test_store_miss;
          tc "flipped byte detected" test_store_detects_flipped_byte;
          tc "truncation detected" test_store_detects_truncation;
          tc "garbage file detected" test_store_detects_garbage_file;
          tc "overwrite and ls" test_store_overwrite_and_ls;
          tc "verify and gc" test_store_verify_and_gc;
          tc "checked-in cell reads back" test_store_reads_checked_in_cell;
        ] );
      ( "grid",
        [
          tc "write-through and warm read"
            test_runs_write_through_and_warm_read;
          tc "corrupt cell re-simulated and healed"
            test_runs_corrupt_cell_resimulated_and_healed;
          tc "scale partitions the store" test_runs_scale_partitions_store;
          tc "load reports missing cells" test_runs_load_reports_missing;
          tc "ingest write-through and warm read"
            test_ingest_write_through_and_warm_read;
        ] );
      ( "differential",
        [ tc "cold vs warm byte-identical" test_differential_cold_vs_warm;
          tc "--cpu applies at render time"
            test_derived_cpu_applies_at_render ] );
      ( "derived",
        [ tc "gc removes bad derived cells, render heals"
            test_derived_gc_and_heal ] );
      ( "checksum",
        [ tc "order and field sensitivity" test_checksum_orders_and_fields ] );
    ]
