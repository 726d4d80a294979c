(* The serve wire protocol and the server itself: codec round-trips
   (unit and property), framing corruption (truncation at every split
   point, bit flips, bad magic, oversized length claims), refusal of
   foreign protocol versions, and an in-process client/server
   integration test covering the cold/warm byte-identity contract and
   typed error replies. *)

[@@@warning "-69"] (* tests poke records partially *)

module P = Serve.Protocol

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Addresses                                                          *)
(* ------------------------------------------------------------------ *)

let test_addr_parse () =
  let ok s = function
    | expected -> (
        match P.addr_of_string s with
        | Ok a -> check_bool (s ^ " parses") true (a = expected)
        | Error e -> Alcotest.failf "%s: unexpected error %s" s e)
  in
  ok "unix:/tmp/x.sock" (P.Unix_path "/tmp/x.sock");
  ok "/tmp/bare.sock" (P.Unix_path "/tmp/bare.sock");
  ok "tcp:localhost:8080" (P.Tcp ("localhost", 8080));
  ok "tcp::9090" (P.Tcp ("127.0.0.1", 9090));
  List.iter
    (fun s ->
      check_bool (s ^ " rejected") true
        (match P.addr_of_string s with Error _ -> true | Ok _ -> false))
    [ "tcp:host:notaport"; "tcp:host:70000"; "tcp:host:-1"; "tcp:host:"; "" ]

let test_addr_round_trip () =
  List.iter
    (fun a ->
      match P.addr_of_string (P.addr_to_string a) with
      | Ok b -> check_bool "to_string round-trips" true (a = b)
      | Error e -> Alcotest.failf "round trip failed: %s" e)
    [ P.Unix_path "/tmp/s.sock"; P.Tcp ("example.org", 80); P.Tcp ("127.0.0.1", 1) ]

(* ------------------------------------------------------------------ *)
(* Payload codec: unit round-trips                                    *)
(* ------------------------------------------------------------------ *)

let req_round_trip r =
  match P.decode_request (P.encode_request r) with
  | Ok (r', id) ->
      check_bool "request round-trips" true (r = r');
      check_string "default id is empty" "" id
  | Error e -> Alcotest.failf "decode failed: %s" (P.decode_error_to_string e)

let resp_round_trip r =
  match P.decode_response (P.encode_response r) with
  | Ok (r', id) ->
      check_bool "response round-trips" true (r = r');
      check_string "default id is empty" "" id
  | Error e -> Alcotest.failf "decode failed: %s" (P.decode_error_to_string e)

let test_request_round_trips () =
  List.iter req_round_trip
    [
      P.Health;
      P.Run_cell { program = "espresso"; allocator = "bsd"; scale = 0.02 };
      P.Run_cell { program = ""; allocator = "\x00\xffbin"; scale = 1e-9 };
      P.Run_experiment { id = "tab4"; scale = 1.0 };
      P.Ingest { format = "text"; trace = "R 0x1000\nW 0x2000\n" };
      P.Ingest { format = ""; trace = "\x00\xff raw bytes" };
    ]

let test_response_round_trips () =
  List.iter resp_round_trip
    [
      P.Health_ok { server_version = "loclab/1.0.0"; protocol_version = 3 };
      P.Cell_ok { digest = String.make 32 'a'; artifact = "\x01\x02payload" };
      P.Report_ok "table\n";
      P.Error { code = P.Bad_request; message = "nope" };
      P.Error { code = P.Unknown_key; message = "" };
      P.Error { code = P.Unsupported_version; message = "v9" };
      P.Error { code = P.Overloaded; message = "draining" };
      P.Error { code = P.Internal; message = "oops" };
    ]

let test_decode_rejects_junk () =
  let malformed = function
    | Error (P.Malformed _) -> true
    | Ok _ | Error (P.Unsupported _) -> false
  in
  check_bool "empty request payload" true (malformed (P.decode_request ""));
  check_bool "empty response payload" true (malformed (P.decode_response ""));
  (* Right version, unknown tag: 1 and 2 were the retired Stats and
     Metrics messages. *)
  List.iter
    (fun tag ->
      let w = Binio.Writer.create () in
      Binio.Writer.int w P.version;
      Binio.Writer.string w "";
      Binio.Writer.int w tag;
      check_bool
        (Printf.sprintf "unknown request tag %d" tag)
        true
        (malformed (P.decode_request (Binio.Writer.contents w)));
      check_bool
        (Printf.sprintf "unknown response tag %d" tag)
        true
        (malformed (P.decode_response (Binio.Writer.contents w))))
    [ 1; 2; 99 ];
  (* A payload without the request id is truncated. *)
  let w = Binio.Writer.create () in
  Binio.Writer.int w P.version;
  Binio.Writer.int w 0;
  check_bool "missing request id" true
    (malformed (P.decode_request (Binio.Writer.contents w)));
  (* A valid message with trailing garbage. *)
  check_bool "trailing bytes" true
    (malformed (P.decode_request (P.encode_request P.Health ^ "x")));
  (* Truncation at every prefix of a payload must stay typed. *)
  let payload =
    P.encode_request
      (P.Run_cell { program = "espresso"; allocator = "bsd"; scale = 0.5 })
  in
  for len = 0 to String.length payload - 1 do
    check_bool
      (Printf.sprintf "truncated payload at %d" len)
      true
      (malformed (P.decode_request (String.sub payload 0 len)))
  done

(* Hand-encoded Health requests of the retired versions: version 1
   was [1 | tag], version 2 [2 | flags | request id | tag]. *)
let v1_health =
  let w = Binio.Writer.create () in
  Binio.Writer.int w 1;
  Binio.Writer.int w 0;
  Binio.Writer.contents w

let v2_health =
  let w = Binio.Writer.create () in
  Binio.Writer.int w 2;
  Binio.Writer.int w 1;
  Binio.Writer.string w "ab";
  Binio.Writer.int w 0;
  Binio.Writer.contents w

let test_version_negotiation () =
  (* Any version but 3 is well-formed but foreign: 99 from the future,
     1 and 2 from the past. *)
  let w = Binio.Writer.create () in
  Binio.Writer.int w 99;
  Binio.Writer.int w 0;
  List.iter
    (fun (v, payload) ->
      check_bool
        (Printf.sprintf "request version %d" v)
        true
        (match P.decode_request payload with
        | Error (P.Unsupported v') -> v = v'
        | _ -> false);
      check_bool
        (Printf.sprintf "response version %d" v)
        true
        (match P.decode_response payload with
        | Error (P.Unsupported v') -> v = v'
        | _ -> false))
    [ (99, Binio.Writer.contents w); (1, v1_health); (2, v2_health) ]

let test_trace_context_round_trip () =
  (* The request id is the whole trace context. *)
  let id = "deadbeef00112233" in
  (match P.decode_request (P.encode_request ~id P.Health) with
  | Ok (P.Health, id') -> check_string "request id" id id'
  | _ -> Alcotest.fail "request did not round-trip");
  let resp = P.Report_ok "table\n" in
  match P.decode_response (P.encode_response ~id resp) with
  | Ok (r, id') ->
      check_bool "response value" true (r = resp);
      check_string "response id" id id'
  | _ -> Alcotest.fail "response did not round-trip"

let test_envelope_bytes () =
  (* Pin the bytes: version 3, the request id, the tag. *)
  let w = Binio.Writer.create () in
  Binio.Writer.int w 3;
  Binio.Writer.string w "ab";
  Binio.Writer.int w 0;
  check_string "Health under id ab" (Binio.Writer.contents w)
    (P.encode_request ~id:"ab" P.Health);
  check_int "P.version" 3 P.version

(* ------------------------------------------------------------------ *)
(* Payload codec: properties                                          *)
(* ------------------------------------------------------------------ *)

let gen_scale = QCheck.Gen.map (fun i -> float_of_int i /. 256.) (QCheck.Gen.int_range 1 1024)

let gen_request =
  QCheck.Gen.(
    oneof
      [
        return P.Health;
        map3
          (fun program allocator scale -> P.Run_cell { program; allocator; scale })
          string_small string_small gen_scale;
        map2 (fun id scale -> P.Run_experiment { id; scale }) string_small gen_scale;
        map2 (fun format trace -> P.Ingest { format; trace }) string_small
          string_small;
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun server_version protocol_version ->
            P.Health_ok { server_version; protocol_version })
          string_small small_nat;
        map2 (fun digest artifact -> P.Cell_ok { digest; artifact }) string_small string_small;
        map (fun s -> P.Report_ok s) string_small;
        map2
          (fun code message -> P.Error { code; message })
          (oneofl
             [ P.Bad_request; P.Unknown_key; P.Unsupported_version; P.Overloaded; P.Internal ])
          string_small;
      ])

let gen_id =
  QCheck.Gen.(
    oneof
      [
        return "";
        map (fun n -> Printf.sprintf "%x" (abs n)) (int_range 0 max_int);
      ])

let prop_request_round_trip =
  QCheck.Test.make ~count:200 ~name:"request encode/decode round-trips"
    (QCheck.make QCheck.Gen.(pair gen_request gen_id))
    (fun (r, id) -> P.decode_request (P.encode_request ~id r) = Ok (r, id))

let prop_response_round_trip =
  QCheck.Test.make ~count:200 ~name:"response encode/decode round-trips"
    (QCheck.make QCheck.Gen.(pair gen_response gen_id))
    (fun (r, id) -> P.decode_response (P.encode_response ~id r) = Ok (r, id))

let prop_garbage_never_raises =
  (* decode_* must answer arbitrary bytes with a typed error (or, by
     astronomical luck, a value) — never an exception. *)
  QCheck.Test.make ~count:500 ~name:"decode never raises on garbage"
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      (match P.decode_request s with Ok _ | Error _ -> true)
      && (match P.decode_response s with Ok _ | Error _ -> true))

(* ------------------------------------------------------------------ *)
(* Frame I/O over real file descriptors                               *)
(* ------------------------------------------------------------------ *)

(* Write [bytes] to [w] from another thread, then close it. *)
let write_then_close w bytes =
  Thread.create
    (fun () ->
      let n = String.length bytes in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write_substring w bytes !off (n - !off)
      done;
      Unix.close w)
    ()

(* Feed exactly [bytes] to read_frame through a pipe, then EOF. *)
let read_from_bytes ?first bytes =
  let r, w = Unix.pipe ~cloexec:true () in
  let writer = write_then_close w bytes in
  let result = P.read_frame ?first r in
  Thread.join writer;
  Unix.close r;
  result

let framed payload = Binio.Frame.frame ~magic:P.magic payload
let payload_string (p : P.payload) = String.sub p.frame p.off p.len

let test_frame_round_trip_over_fd () =
  let payload = P.encode_request (P.Run_experiment { id = "tab4"; scale = 0.25 }) in
  match read_from_bytes (framed payload) with
  | Ok (Some p) ->
      check_string "payload survives the wire" payload (payload_string p)
  | Ok None -> Alcotest.fail "unexpected EOF"
  | Error e -> Alcotest.failf "read_frame: %s" e

let test_frame_sniffed_prefix () =
  (* The server hands read_frame the bytes its protocol sniff consumed. *)
  let payload = P.encode_request P.Health in
  let bytes = framed payload in
  let first = String.sub bytes 0 4 in
  let rest = String.sub bytes 4 (String.length bytes - 4) in
  match read_from_bytes ~first rest with
  | Ok (Some p) ->
      check_string "prefix + rest reassemble" payload (payload_string p)
  | _ -> Alcotest.fail "sniffed read failed"

let test_frame_clean_eof () =
  check_bool "0 bytes = clean EOF" true (read_from_bytes "" = Ok None)

let test_frame_truncation_every_split () =
  (* Cutting the stream anywhere after byte 0 is a torn frame: a typed
     Error, never Ok None and never an exception. *)
  let bytes = framed (P.encode_request P.Health) in
  for len = 1 to String.length bytes - 1 do
    check_bool
      (Printf.sprintf "truncated at %d/%d" len (String.length bytes))
      true
      (match read_from_bytes (String.sub bytes 0 len) with
      | Error _ -> true
      | Ok _ -> false)
  done

let test_frame_bit_flips () =
  (* Flip one bit in every byte position: magic, length, payload and
     CRC corruption must all surface as Error. *)
  let bytes = framed (P.encode_request P.Health) in
  for i = 0 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    check_bool
      (Printf.sprintf "bit flip at %d" i)
      true
      (match read_from_bytes (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> false)
  done

let test_frame_oversized_length_claim () =
  (* Header claiming a payload bigger than max_frame_bytes must be
     rejected from the header alone (no multi-GiB allocation). *)
  let b = Bytes.create (String.length P.magic + 8) in
  Bytes.blit_string P.magic 0 b 0 (String.length P.magic);
  Bytes.set_int64_le b (String.length P.magic)
    (Int64.of_int (P.max_frame_bytes + 1));
  check_bool "oversized claim rejected" true
    (match read_from_bytes (Bytes.to_string b) with
    | Error _ -> true
    | Ok _ -> false)

let test_frame_bad_magic () =
  let bytes = framed (P.encode_request P.Health) in
  let b = Bytes.of_string bytes in
  Bytes.blit_string "NOTSRV1\n" 0 b 0 8;
  check_bool "foreign magic rejected" true
    (match read_from_bytes (Bytes.to_string b) with
    | Error _ -> true
    | Ok _ -> false)

(* Reading a frame costs the frame once, and decoding it costs the
   fields it decodes once: an 8 MiB ingest over a socketpair allocates
   about its size in [read_frame] (the frame, checked in place) and
   about its size again in [decode_request] (the trace field, read in
   place from the frame), not further whole copies of it. *)
let test_frame_read_allocation () =
  let trace = String.init (8 * 1024 * 1024) (fun i -> Char.chr (i land 0xff)) in
  let req = P.Ingest { format = "binary"; trace } in
  let payload = P.encode_request ~id:"feed" req in
  let bytes = framed payload in
  let r, w = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer = write_then_close w bytes in
  (* Minor collections on both sides of each call keep words allocated
     before it out of the count (see test_core's identity-pass budget). *)
  let measure f =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let v = f () in
    Gc.minor ();
    (v, (Gc.allocated_bytes () -. before) /. float_of_int (String.length trace))
  in
  let result, read_ratio = measure (fun () -> P.read_frame r) in
  Thread.join writer;
  Unix.close r;
  let p =
    match result with
    | Ok (Some p) -> p
    | _ -> Alcotest.fail "no frame from the socketpair"
  in
  check_string "payload survives the socketpair" payload (payload_string p);
  let decoded, decode_ratio =
    measure (fun () -> P.decode_request ~off:p.off ~len:p.len p.frame)
  in
  check_bool "request decodes in place" true (decoded = Ok (req, "feed"));
  check_bool
    (Printf.sprintf "read_frame allocated %.2fx the trace, budget 1.5x"
       read_ratio)
    true (read_ratio < 1.5);
  check_bool
    (Printf.sprintf "decode_request allocated %.2fx the trace, budget 1.5x"
       decode_ratio)
    true (decode_ratio < 1.5)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A checked-in file under test/frames, found from the test directory
   (dune test) or from the repository root (dune exec). *)
let frame_file name =
  let here = Filename.concat "frames" name in
  if Sys.file_exists here then here else Filename.concat "test/frames" name

let checked_in_digest = "1fdc6d4bf0a0ca218d41b15b897f852c"

let checked_in_request =
  P.Run_cell { program = "espresso"; allocator = "bsd"; scale = 0.002 }

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
  Bytes.to_string b

let read_payload bytes =
  match read_from_bytes bytes with
  | Ok (Some p) -> p
  | Ok None -> Alcotest.fail "unexpected EOF"
  | Error e -> Alcotest.failf "read_frame: %s" e

(* test/frames/request.frame and response.frame were written by the
   byte-at-a-time CRC and the copying decoder: a Run_cell request and
   the Cell_ok reply carrying test/frames/cell.art's payload, both with
   id "00c0ffee".  They read back field for field, re-encode byte for
   byte, and a flipped byte is refused with the message it always had;
   a truncated payload in a sound frame, decoded in place, reports the
   offsets a copy of the payload would. *)
let test_frame_checked_in () =
  let reqf = read_file (frame_file "request.frame") in
  let respf = read_file (frame_file "response.frame") in
  let cell = read_file (frame_file "cell.art") in
  let artifact = String.sub cell 16 (String.length cell - 24) in
  let p = read_payload reqf in
  check_bool "request decodes in place" true
    (P.decode_request ~off:p.off ~len:p.len p.frame
    = Ok (checked_in_request, "00c0ffee"));
  check_string "request re-encodes byte for byte" reqf
    (framed (P.encode_request ~id:"00c0ffee" checked_in_request));
  let p = read_payload respf in
  let reply = P.Cell_ok { digest = checked_in_digest; artifact } in
  check_bool "response decodes in place" true
    (P.decode_response ~off:p.off ~len:p.len p.frame = Ok (reply, "00c0ffee"));
  check_string "response re-encodes byte for byte" respf
    (framed (P.encode_response ~id:"00c0ffee" reply));
  List.iter
    (fun (what, bytes, off, reason) ->
      check_bool
        (Printf.sprintf "%s byte %d flipped" what off)
        true
        (read_from_bytes (flip bytes off) = Error reason))
    [ ("request", reqf, 0, "bad frame magic (not a loclab serve stream)");
      ("request", reqf, 9, "connection closed mid-frame");
      ("request", reqf, 20, "CRC mismatch (stored 0x6d06ce4e, computed 0x28f01ce)");
      ( "request", reqf, 90,
        "CRC mismatch (stored 0x5a0000006d06ce4e, computed 0x6d06ce4e)" );
      ("response", respf, 40, "CRC mismatch (stored 0xe8830b38, computed 0x1326645e)");
      ( "response", respf, 2434,
        "CRC mismatch (stored 0xe8830b38, computed 0x633db3d2)" ) ];
  let malformed = function Error (P.Malformed m) -> m | _ -> "not malformed" in
  let cut frame n = read_payload (framed (String.sub (payload_string frame) 0 n)) in
  let req = read_payload reqf and resp = read_payload respf in
  let p = cut req 10 in
  check_string "request cut to 10 bytes"
    "truncated payload: need 8 bytes at offset 8 of 10"
    (malformed (P.decode_request ~off:p.off ~len:p.len p.frame));
  let p = cut req 64 in
  check_string "request cut to 64 bytes"
    "truncated payload: need 8 bytes at offset 59 of 64"
    (malformed (P.decode_request ~off:p.off ~len:p.len p.frame));
  let p = cut resp 2319 in
  check_string "response cut to 2319 bytes"
    "truncated payload: need 2339 bytes at offset 80 of 2319"
    (malformed (P.decode_response ~off:p.off ~len:p.len p.frame))

(* ------------------------------------------------------------------ *)
(* In-process server/client integration                               *)
(* ------------------------------------------------------------------ *)

let fresh_paths () =
  let tag = Printf.sprintf "loclab-test-%d-%d" (Unix.getpid ()) (Random.bits ()) in
  ( Filename.concat (Filename.get_temp_dir_name ()) (tag ^ ".sock"),
    Filename.concat (Filename.get_temp_dir_name ()) (tag ^ "-store") )

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* A fresh socket path and store directory, both removed when [f]
   returns or raises: the socket file if a server left it, and the
   store with its derived/ sub-store. *)
let with_paths f =
  let sock, store_dir = fresh_paths () in
  Fun.protect
    ~finally:(fun () ->
      remove_tree sock;
      remove_tree store_dir)
    (fun () -> f sock store_dir)

let with_server_jobs ~jobs ?access_log f =
  with_paths @@ fun sock store_dir ->
  let store = Store.open_ store_dir in
  let server =
    Serve.Server.create ~jobs ~store ?access_log ~listen:(P.Unix_path sock) ()
  in
  let runner = Thread.create Serve.Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      Thread.join runner)
    (fun () -> f ~sock ~store server)

let with_server ?access_log f = with_server_jobs ~jobs:1 ?access_log f

let rpc client req =
  match Serve.Client.request client req with
  | Ok resp -> resp
  | Error e ->
      Alcotest.failf "transport error: %s" (Serve.Client.error_to_string e)

(* One value of the server's /status document, by path. *)
let status_at server path =
  match Metrics.Export.of_string (Serve.Server.status_json server) with
  | Error msg -> Alcotest.failf "/status unparsable: %s" msg
  | Ok json ->
      List.fold_left
        (fun j k -> Option.bind j (Metrics.Export.member k))
        (Some json) path

let status_int server path =
  match status_at server path with
  | Some (Metrics.Export.Int n) -> n
  | _ -> Alcotest.failf "/status has no integer %s" (String.concat "." path)

let raw_connect sock =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

(* One reply read off a raw connection: its message and id. *)
let read_reply fd =
  match P.read_frame fd with
  | Ok (Some { frame; off; len }) -> (
      match P.decode_response ~off ~len frame with
      | Ok reply -> reply
      | Error e ->
          Alcotest.failf "undecodable reply: %s" (P.decode_error_to_string e))
  | Ok None -> Alcotest.fail "EOF before the reply"
  | Error e -> Alcotest.failf "torn reply: %s" e

let test_integration_lifecycle () =
  with_server (fun ~sock ~store server ->
      let addr = P.Unix_path sock in
      Serve.Client.with_connection addr (fun c ->
          (* Health. *)
          (match rpc c P.Health with
          | P.Health_ok { protocol_version; _ } ->
              check_int "protocol version" P.version protocol_version
          | r -> Alcotest.failf "health: unexpected %s" (P.encode_response r));
          (* Cold cell: simulated, written through to the store. *)
          let cell =
            P.Run_cell { program = "espresso"; allocator = "bsd"; scale = 0.02 }
          in
          let digest, cold_bytes =
            match rpc c cell with
            | P.Cell_ok { digest; artifact } -> (digest, artifact)
            | r -> Alcotest.failf "cold cell: unexpected %s" (P.encode_response r)
          in
          (match Core.Artifact.decode_meta cold_bytes with
          | Ok m ->
              check_string "meta program" "espresso" m.Core.Artifact.program;
              check_string "meta allocator" "bsd" m.Core.Artifact.allocator
          | Error e -> Alcotest.failf "artifact meta: %s" e);
          (* The reply carries exactly the bytes the store persisted. *)
          (match Store.find store ~digest with
          | Store.Hit payload -> check_string "store payload = reply" payload cold_bytes
          | Store.Miss -> Alcotest.fail "cell not written through"
          | Store.Corrupt e -> Alcotest.failf "store corrupt: %s" e);
          (* Warm re-fetch: byte-identical. *)
          (match rpc c cell with
          | P.Cell_ok { digest = d2; artifact = warm_bytes } ->
              check_string "warm digest" digest d2;
              check_string "warm bytes = cold bytes" cold_bytes warm_bytes
          | r -> Alcotest.failf "warm cell: unexpected %s" (P.encode_response r));
          (* Typed errors, connection intact afterwards. *)
          (match
             rpc c (P.Run_cell { program = "no-such"; allocator = "bsd"; scale = 0.02 })
           with
          | P.Error { code = P.Unknown_key; _ } -> ()
          | r -> Alcotest.failf "unknown program: unexpected %s" (P.encode_response r));
          List.iter
            (fun scale ->
              match
                rpc c (P.Run_cell { program = "espresso"; allocator = "bsd"; scale })
              with
              | P.Error { code = P.Bad_request; _ } -> ()
              | r ->
                  Alcotest.failf "bad scale %g: unexpected %s" scale
                    (P.encode_response r))
            [ 99.0; 0.; Float.nan ];
          (match rpc c (P.Run_experiment { id = "tab4"; scale = Float.nan }) with
          | P.Error { code = P.Bad_request; _ } -> ()
          | r ->
              Alcotest.failf "bad experiment scale: unexpected %s"
                (P.encode_response r));
          (* /status reflects the work. *)
          check_int "one simulated cell" 1
            (status_int server [ "requests"; "simulated_cells" ]);
          check_int "one warm cell" 1
            (status_int server [ "requests"; "warm_cells" ]);
          check_bool "errors counted" true
            (status_int server [ "requests"; "errors" ] >= 2);
          (* Requests by kind: the process-wide counters, so at least
             this case's own. *)
          check_bool "health requests by kind" true
            (status_int server [ "requests"; "kinds"; "health" ] >= 1);
          check_bool "cell requests by kind" true
            (status_int server [ "requests"; "kinds"; "cell" ] >= 6));
      (* A future-version request gets a typed reply, not a hangup. *)
      Serve.Client.with_connection addr (fun _ -> ());
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let w = Binio.Writer.create () in
      Binio.Writer.int w 99;
      Binio.Writer.int w 0;
      P.write_frame fd (Binio.Writer.contents w);
      (match P.read_frame fd with
      | Ok (Some { frame; off; len }) -> (
          match P.decode_response ~off ~len frame with
          | Ok (P.Error { code = P.Unsupported_version; _ }, _) -> ()
          | _ -> Alcotest.fail "expected Unsupported_version reply")
      | _ -> Alcotest.fail "no reply to future-version request");
      (* A torn/garbage frame gets Bad_request before the hangup. *)
      let n =
        Unix.write_substring fd "garbage that is not a frame at all....." 0 39
      in
      check_int "garbage written" 39 n;
      (match P.read_frame fd with
      | Ok (Some { frame; off; len }) -> (
          match P.decode_response ~off ~len frame with
          | Ok (P.Error { code = P.Bad_request; _ }, _) -> ()
          | _ -> Alcotest.fail "expected Bad_request reply")
      | _ -> Alcotest.fail "no reply to garbage");
      Unix.close fd;
      (* Plain HTTP on the same socket. *)
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let http_req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd http_req 0 (String.length http_req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      Unix.close fd;
      let body = Buffer.contents buf in
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check_bool "HTTP 200" true (contains body "200");
      check_bool "metrics exposition served" true
        (contains body "loclab_serve_requests_total");
      (* Server-side counters agree with what we drove through it. *)
      check_bool "requests counted" true
        (status_int server [ "requests"; "total" ] >= 7);
      check_bool "uptime sane" true
        (match
           Option.bind
             (status_at server [ "server"; "uptime_seconds" ])
             Metrics.Export.to_float_opt
         with
        | Some u -> u >= 0.
        | None -> false));
  (* Graceful shutdown ran in with_server's finally; after it the
     socket file must be gone. *)
  ()

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_integration_ingest () =
  with_server (fun ~sock ~store server ->
      let text = "R 0x1000\nW 0x1020\nR 0x1000\nW 0x20000\n" in
      Serve.Client.with_connection (P.Unix_path sock) (fun c ->
          (* Cold ingest: simulated and written through. *)
          let digest, cold_bytes =
            match rpc c (P.Ingest { format = "text"; trace = text }) with
            | P.Cell_ok { digest; artifact } -> (digest, artifact)
            | r ->
                Alcotest.failf "cold ingest: unexpected %s"
                  (P.encode_response r)
          in
          (match Store.find store ~digest with
          | Store.Hit payload ->
              check_string "store payload = reply" payload cold_bytes
          | Store.Miss -> Alcotest.fail "ingest not written through"
          | Store.Corrupt e -> Alcotest.failf "store corrupt: %s" e);
          (* Warm re-ingest of the same stream in another capture
             format: same digest, byte-identical artifact. *)
          let csv =
            Memsim.Trace.write Memsim.Trace.Source.Csv (fun sink ->
                ignore
                  (Memsim.Trace.read Memsim.Trace.Source.Text text sink))
          in
          (match rpc c (P.Ingest { format = "csv"; trace = csv }) with
          | P.Cell_ok { digest = d2; artifact = warm_bytes } ->
              check_string "warm digest" digest d2;
              check_string "warm bytes = cold bytes" cold_bytes warm_bytes
          | r ->
              Alcotest.failf "warm ingest: unexpected %s"
                (P.encode_response r));
          (* Typed errors: unknown format, malformed capture. *)
          (match rpc c (P.Ingest { format = "elf"; trace = text }) with
          | P.Error { code = P.Bad_request; _ } -> ()
          | r ->
              Alcotest.failf "unknown format: unexpected %s"
                (P.encode_response r));
          (match
             rpc c (P.Ingest { format = "text"; trace = "R 0x10\nbogus\n" })
           with
          | P.Error { code = P.Bad_request; _ } -> ()
          | r ->
              Alcotest.failf "malformed trace: unexpected %s"
                (P.encode_response r));
          (* "framed" names no format, and a binary capture asking for
             one 2^36-byte read is refused at its flags byte before any
             work is done: both are Bad_request, and the connection
             still answers. *)
          (match rpc c (P.Ingest { format = "framed"; trace = text }) with
          | P.Error { code = P.Bad_request; _ } -> ()
          | r ->
              Alcotest.failf "framed format: unexpected %s"
                (P.encode_response r));
          (match
             rpc c
               (P.Ingest
                  { format = "binary";
                    trace = "LOCLAB1\n\xf8\x80\x80\x80\x80\x80\x02\x80\x40"
                  })
           with
          | P.Error { code = P.Bad_request; message } ->
              check_bool
                (Printf.sprintf "oversize event located (%s)" message)
                true
                (contains message "byte 8 (flags 0xf8)")
          | r ->
              Alcotest.failf "oversize event: unexpected %s"
                (P.encode_response r));
          (match rpc c P.Health with
          | P.Health_ok _ -> ()
          | r ->
              Alcotest.failf "health after refusals: unexpected %s"
                (P.encode_response r));
          check_int "one simulated ingest" 1
            (status_int server [ "requests"; "simulated_cells" ]);
          check_int "one warm ingest" 1
            (status_int server [ "requests"; "warm_cells" ])))

(* ------------------------------------------------------------------ *)
(* Request tracing end to end                                         *)
(* ------------------------------------------------------------------ *)

(* A client-supplied request id must surface in the reply, the access
   log, the /status slow-request table and the span ring — one id, four
   observability surfaces. *)
let test_trace_propagation () =
  let access_log =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "loclab-test-%d-%d-access.jsonl" (Unix.getpid ())
         (Random.bits ()))
  in
  Telemetry.Rctx.Slow.reset ();
  Telemetry.Span.reset ();
  Telemetry.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Span.set_enabled false;
      try Sys.remove access_log with Sys_error _ -> ())
    (fun () ->
      with_server ~access_log (fun ~sock ~store:_ server ->
          let id = "feedface01234567" in
          let fd = raw_connect sock in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              P.write_frame fd
                (P.encode_request ~id
                   (P.Run_cell
                      { program = "espresso"; allocator = "bsd"; scale = 0.02 }));
              (match read_reply fd with
              | P.Cell_ok _, echo ->
                  check_string "server echoes the client id" id echo
              | r, _ -> Alcotest.failf "unexpected %s" (P.encode_response r));
              (* The connection thread writes the access-log line after
                 the reply; a second request on the same connection
                 serializes behind it, so once this answers the first
                 line is on disk. *)
              P.write_frame fd (P.encode_request P.Health);
              ignore (read_reply fd));
          let lines =
            let ic = open_in access_log in
            let acc = ref [] in
            (try
               while true do
                 acc := input_line ic :: !acc
               done
             with End_of_file -> ());
            close_in ic;
            !acc
          in
          (match List.filter (fun l -> contains l id) lines with
          | [] -> Alcotest.fail "no access-log line carries the id"
          | line :: _ -> (
              match Metrics.Export.of_string line with
              | Error msg -> Alcotest.failf "access line unparsable: %s" msg
              | Ok json ->
                  let field k = Metrics.Export.member k json in
                  let str k =
                    Option.bind (field k) Metrics.Export.to_string_opt
                  in
                  check_bool "request_id field" true (str "request_id" = Some id);
                  check_bool "kind field" true (str "kind" = Some "cell");
                  check_bool "outcome field" true (str "outcome" = Some "ok");
                  check_bool "total_us present" true
                    (Option.bind (field "total_us") Metrics.Export.to_float_opt
                    <> None);
                  check_bool "stages carries simulate" true
                    (match field "stages" with
                    | Some (Metrics.Export.Obj fields) ->
                        List.mem_assoc "simulate" fields
                        && List.mem_assoc "encode" fields
                    | _ -> false)));
          let status = Serve.Server.status_json server in
          check_bool "/status slow-request table carries the id" true
            (contains status id);
          check_bool "span ring carries the id" true
            (contains (Telemetry.Span.to_chrome_json ()) id)))

let test_old_versions_refused () =
  (* A version-1 or version-2 Health gets a version-3 Unsupported_version
     reply naming version 3, and the connection then answers a
     version-3 Health. *)
  with_server (fun ~sock ~store:_ _server ->
      let fd = raw_connect sock in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          List.iter
            (fun (v, payload) ->
              P.write_frame fd payload;
              match read_reply fd with
              | P.Error { code = P.Unsupported_version; message }, _ ->
                  check_bool
                    (Printf.sprintf "v%d refusal names version 3: %S" v message)
                    true
                    (contains message "version 3")
              | r, _ ->
                  Alcotest.failf "v%d Health: unexpected %s" v
                    (P.encode_response r))
            [ (1, v1_health); (2, v2_health) ];
          P.write_frame fd (P.encode_request ~id:"abc" P.Health);
          match read_reply fd with
          | P.Health_ok { protocol_version; _ }, id ->
              check_int "server speaks version 3" 3 protocol_version;
              check_string "reply echoes the id" "abc" id
          | r, _ ->
              Alcotest.failf "v3 Health: unexpected %s" (P.encode_response r)))

(* ------------------------------------------------------------------ *)
(* The plain-HTTP side                                                *)
(* ------------------------------------------------------------------ *)

let http_exchange sock payload =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      ignore (Unix.write_substring fd payload 0 (String.length payload));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      Buffer.contents buf)

let http_body resp =
  let rec find i =
    if i + 4 > String.length resp then
      Alcotest.fail "no header/body split in HTTP response"
    else if String.sub resp i 4 = "\r\n\r\n" then
      String.sub resp (i + 4) (String.length resp - i - 4)
    else find (i + 1)
  in
  find 0

let test_http_paths () =
  with_server (fun ~sock ~store:_ _server ->
      (* A method prefix with a malformed request line: 400. *)
      let resp = http_exchange sock "GET \r\n\r\n" in
      check_bool "malformed line -> 400" true (contains resp "400 Bad Request");
      (* Non-GET methods are sniffed as HTTP and answered 405. *)
      let resp = http_exchange sock "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n" in
      check_bool "POST -> 405" true (contains resp "405 Method Not Allowed");
      let resp = http_exchange sock "HEAD / HTTP/1.0\r\n\r\n" in
      check_bool "HEAD -> 405" true (contains resp "405 Method Not Allowed");
      (* Unknown path: 404 with a hint at the real routes. *)
      let resp = http_exchange sock "GET /nope HTTP/1.0\r\n\r\n" in
      check_bool "unknown path -> 404" true (contains resp "404 Not Found");
      check_bool "404 names the routes" true (contains resp "/status");
      (* /status: parseable JSON with the introspection sections. *)
      let resp = http_exchange sock "GET /status HTTP/1.0\r\n\r\n" in
      check_bool "/status -> 200" true (contains resp "200 OK");
      check_bool "/status is JSON" true (contains resp "application/json");
      match Metrics.Export.of_string (http_body resp) with
      | Error msg -> Alcotest.failf "/status unparsable: %s" msg
      | Ok json ->
          let has k =
            check_bool (k ^ " section") true (Metrics.Export.member k json <> None)
          in
          List.iter has
            [
              "server"; "requests"; "latency_us"; "stages"; "connections";
              "single_flight"; "slow_requests"; "spans"; "access_log";
            ];
          let protocol =
            Option.bind
              (Metrics.Export.member "server" json)
              (Metrics.Export.member "protocol")
          in
          check_bool "protocol = version" true
            (Option.bind protocol Metrics.Export.to_int_opt = Some P.version))

(* ------------------------------------------------------------------ *)
(* The shared resolution path                                         *)
(* ------------------------------------------------------------------ *)

let cell_digest ~program ~allocator ~scale =
  Core.Artifact.digest ~program ~allocator ~scale
    ~seed:(Workload.Programs.find program).Workload.Profile.seed

let cell_reply c req =
  match rpc c req with
  | P.Cell_ok { digest; artifact } -> (digest, artifact)
  | r -> Alcotest.failf "cell: unexpected %s" (P.encode_response r)

(* One sample's value from the process-wide registry the server counts
   into; [sample] is the metric name with its label set, if any. *)
let metric_value sample =
  let prefix = sample ^ " " in
  let text =
    Telemetry.Metrics.to_prometheus
      (Telemetry.Metrics.snapshot Telemetry.Metrics.default)
  in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        int_of_string_opt
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
      else None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0

let source_total family source =
  metric_value (Printf.sprintf "%s{source=\"%s\"}" family source)

let simulated_total () = source_total "loclab_cells_total" "simulated"
let derived_computed_total () = source_total "loclab_derived_total" "computed"

(* One /status body's in-flight keys and simulated-cell count.  The
   server reads its counters before the single-flight table and counts a
   simulated cell only after its flight has left the table, so a body
   listing a digest counts none of that digest's simulations. *)
let status_flights sock =
  let body = http_body (http_exchange sock "GET /status HTTP/1.0\r\n\r\n") in
  match Metrics.Export.of_string body with
  | Error msg -> Alcotest.failf "/status unparsable: %s" msg
  | Ok json ->
      let keys =
        match Metrics.Export.member "single_flight" json with
        | Some (Metrics.Export.List keys) ->
            List.filter_map
              (function Metrics.Export.String k -> Some k | _ -> None)
              keys
        | _ -> Alcotest.fail "/status has no single_flight list"
      in
      let simulated =
        match
          Option.bind
            (Metrics.Export.member "requests" json)
            (Metrics.Export.member "simulated_cells")
        with
        | Some (Metrics.Export.Int n) -> n
        | _ -> Alcotest.fail "/status has no requests.simulated_cells"
      in
      (keys, simulated)

(* A payload filed under another cell's digest fails the validated
   read: the reply must name the requested cell, and the store must
   hold that cell afterwards. *)
let check_healed store ~digest reply =
  (match Core.Artifact.decode_meta reply with
  | Ok m ->
      check_string "reply names the requested cell" digest
        (Core.Artifact.digest_of_meta m)
  | Error e -> Alcotest.failf "reply meta: %s" e);
  match Store.find store ~digest with
  | Store.Hit payload -> check_string "store healed with the reply" reply payload
  | Store.Miss -> Alcotest.fail "healed cell missing"
  | Store.Corrupt e -> Alcotest.failf "store corrupt: %s" e

let test_misfiled_payload_rejected () =
  with_server (fun ~sock ~store _server ->
      let scale = 0.01 in
      let bsd = cell_digest ~program:"make" ~allocator:"bsd" ~scale in
      let firstfit =
        Core.Runs.get (Core.Runs.create ~scale ()) ~profile:"make"
          ~allocator:"firstfit"
      in
      Store.put store ~digest:bsd (Core.Artifact.encode firstfit);
      let trace = "R 0x2000\nW 0x2040\nR 0x2000\n" in
      let trace_digest =
        Core.Runs.trace_digest
          ~ident:
            (snd
               (Core.Runs.trace_ident ~format:Memsim.Trace.Source.Text
                  ~data:trace))
      in
      let other =
        Core.Runs.ingest (Core.Runs.create ())
          ~format:Memsim.Trace.Source.Text ~data:"R 0x1000\n"
      in
      Store.put store ~digest:trace_digest (Core.Artifact.encode other);
      Serve.Client.with_connection (P.Unix_path sock) (fun c ->
          let d, reply =
            cell_reply c
              (P.Run_cell { program = "make"; allocator = "bsd"; scale })
          in
          check_string "cell digest" bsd d;
          check_healed store ~digest:bsd reply;
          let d, reply = cell_reply c (P.Ingest { format = "text"; trace }) in
          check_string "ingest digest" trace_digest d;
          check_healed store ~digest:trace_digest reply))

(* Holds the cold cell [digest] in flight until the test calls
   [release]: Core.Runs logs every cell it computes, at debug level on
   its "loclab.runs" source, after writing it through and before
   returning into the server's single flight, so a reporter that blocks
   on that line keeps the flight listed on /status, and its reply
   unwritten, for as long as the test wants.  Other log lines pass
   through to the reporter in place.  The hold must engage, so a
   renamed source or reworded line fails here rather than leaving the
   test to timing. *)
let with_held_cell ~digest f =
  let src =
    List.find (fun s -> Logs.Src.name s = "loclab.runs") (Logs.Src.list ())
  in
  let level = Logs.Src.level src and prev = Logs.reporter () in
  let mu = Mutex.create () and cond = Condition.create () in
  let released = ref false and held = ref false in
  let report s lvl ~over k msgf =
    if s != src || lvl <> Logs.Debug then prev.Logs.report s lvl ~over k msgf
    else
      msgf (fun ?header:_ ?tags:_ fmt ->
          Format.kasprintf
            (fun line ->
              if contains line digest then begin
                Mutex.lock mu;
                held := true;
                while not !released do
                  Condition.wait cond mu
                done;
                Mutex.unlock mu
              end;
              over ();
              k ())
            fmt)
  in
  let release () =
    Mutex.lock mu;
    released := true;
    Condition.broadcast cond;
    Mutex.unlock mu
  in
  Logs.set_reporter { Logs.report };
  Logs.Src.set_level src (Some Logs.Debug);
  let r =
    Fun.protect
      ~finally:(fun () ->
        release ();
        Logs.Src.set_level src level;
        Logs.set_reporter prev)
      (fun () -> f ~release)
  in
  check_bool "the cold cell was held in flight" true !held;
  r

(* At jobs = 1 the pool runs a cold cell inline on the connection thread;
   the single-flight lock must not be held meanwhile.  /status must
   answer while the cell is still simulating — before its simulation
   is counted — and list its digest. *)
let test_status_during_cold_cell () =
  with_server (fun ~sock ~store:_ _server ->
      let program, allocator, scale = ("gs-large", "firstfit", 0.05) in
      let digest = cell_digest ~program ~allocator ~scale in
      let before = simulated_total () in
      let status_before = snd (status_flights sock) in
      let finished = Atomic.make false in
      let seen =
        with_held_cell ~digest @@ fun ~release ->
        let cell =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () -> Atomic.set finished true)
                (fun () ->
                  Serve.Client.with_connection (P.Unix_path sock) (fun c ->
                      ignore
                        (cell_reply c
                           (P.Run_cell { program; allocator; scale })))))
            ()
        in
        let deadline = Unix.gettimeofday () +. 120. in
        let rec poll () =
          let keys, simulated = status_flights sock in
          if List.mem digest keys then Some simulated
          else if Atomic.get finished || Unix.gettimeofday () > deadline then
            None
          else begin
            Thread.delay 0.005;
            poll ()
          end
        in
        let seen = poll () in
        release ();
        Thread.join cell;
        seen
      in
      check_bool "/status listed the in-flight digest" true (seen <> None);
      check_int "listed while the cell was still simulating" status_before
        (Option.value seen ~default:(-1));
      check_int "the cell simulated once" (before + 1) (simulated_total ()))

(* With a worker domain per core no core is idle, so a cold cell's
   consumers run on its worker: /metrics counts the relay inline. *)
let test_worker_per_core_relays_nothing () =
  let relays path = metric_value (Printf.sprintf "loclab_relay_total{path=\"%s\"}" path) in
  with_server_jobs ~jobs:(Exec.Pool.recommended_jobs ())
    (fun ~sock ~store:_ _server ->
      let relayed = relays "relayed" and inline = relays "inline" in
      Serve.Client.with_connection (P.Unix_path sock) (fun c ->
          ignore
            (cell_reply c
               (P.Run_cell { program = "make"; allocator = "bsd"; scale = 0.01 })));
      check_int "no relay took a helper" relayed (relays "relayed");
      check_int "the cell's relay ran inline" (inline + 1) (relays "inline"))

(* N clients ask for the same cold cell at once: one simulation, and
   every reply is the store's payload byte for byte. *)
let test_concurrent_single_flight () =
  with_server_jobs ~jobs:2 (fun ~sock ~store _server ->
      let program, allocator, scale = ("espresso", "quickfit", 0.02) in
      let digest = cell_digest ~program ~allocator ~scale in
      let before = simulated_total () in
      let n = 4 in
      let connected = Atomic.make 0 in
      let replies = Array.make n "" in
      let client i () =
        Serve.Client.with_connection (P.Unix_path sock) (fun c ->
            Atomic.incr connected;
            while Atomic.get connected < n do
              Thread.yield ()
            done;
            let d, bytes =
              cell_reply c (P.Run_cell { program; allocator; scale })
            in
            check_string "reply digest" digest d;
            replies.(i) <- bytes)
      in
      List.init n (fun i -> Thread.create (client i) ())
      |> List.iter Thread.join;
      (match Store.find store ~digest with
      | Store.Hit payload ->
          Array.iteri
            (fun i reply ->
              check_string
                (Printf.sprintf "reply %d = store payload" i)
                payload reply)
            replies
      | Store.Miss -> Alcotest.fail "cell not written through"
      | Store.Corrupt e -> Alcotest.failf "store corrupt: %s" e);
      check_int "exactly one simulation" (before + 1) (simulated_total ()))

(* An off-grid experiment's rows are a derived cell: the first request
   computes and writes it through, a second one at the same scale reads
   it back and replies with the same bytes, simulating nothing. *)
let test_experiment_warm_from_store () =
  with_server (fun ~sock ~store:_ _server ->
      Serve.Client.with_connection (P.Unix_path sock) (fun c ->
          let report () =
            match rpc c (P.Run_experiment { id = "tabcpu"; scale = 0.01 }) with
            | P.Report_ok text -> text
            | r ->
                Alcotest.failf "experiment: unexpected %s"
                  (P.encode_response r)
          in
          let computed0 = derived_computed_total () in
          let first = report () in
          let computed = derived_computed_total ()
          and simulated = simulated_total () in
          check_int "the first request computed the cell" (computed0 + 1)
            computed;
          let second = report () in
          check_string "second reply byte-identical" first second;
          check_int "no derived cell computed" computed
            (derived_computed_total ());
          check_int "no grid cell simulated" simulated (simulated_total ())))

let status_section server key =
  match Metrics.Export.of_string (Serve.Server.status_json server) with
  | Error msg -> Alcotest.failf "/status unparsable: %s" msg
  | Ok json -> Metrics.Export.member key json

(* Per-stage request counts and quantiles from /status. *)
let status_stages server =
  let field conv k st = Option.bind (Metrics.Export.member k st) conv in
  match status_section server "stages" with
  | Some (Metrics.Export.List stages) ->
      List.filter_map
        (fun st ->
          match
            ( field Metrics.Export.to_string_opt "stage" st,
              field Metrics.Export.to_int_opt "count" st,
              field Metrics.Export.to_float_opt "p50_us" st,
              field Metrics.Export.to_float_opt "p99_us" st )
          with
          | Some name, Some count, Some p50, Some p99 ->
              Some (name, (count, p50, p99))
          | _ -> None)
        stages
  | _ -> Alcotest.fail "/status has no stages list"

(* Two connections send warm cells, one cold cell and health requests
   to a jobs=2 server that logs every request.  The access log and its
   counter, the per-stage latency table and the slow-request table must
   all account for that traffic.  Metrics and stage histograms are
   process-global, so both are read as deltas. *)
let test_access_log_and_stages () =
  let access_log =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "loclab-test-%d-%d-access.jsonl" (Unix.getpid ())
         (Random.bits ()))
  in
  let written () = metric_value "loclab_access_log_written_total" in
  Telemetry.Rctx.Slow.reset ();
  Fun.protect
    ~finally:(fun () -> try Sys.remove access_log with Sys_error _ -> ())
    (fun () ->
      with_server_jobs ~jobs:2 ~access_log (fun ~sock ~store server ->
          let scale = 0.005 in
          let cell (program, allocator) =
            P.Run_cell { program; allocator; scale }
          in
          let w1 = ("espresso", "bsd") and w2 = ("make", "firstfit") in
          List.iter
            (fun (program, allocator) ->
              let art =
                Core.Runs.get (Core.Runs.create ~scale ()) ~profile:program
                  ~allocator
              in
              Store.put store
                ~digest:(cell_digest ~program ~allocator ~scale)
                (Core.Artifact.encode art))
            [ w1; w2 ];
          let mixes =
            [ [ cell w1; P.Health; cell w2; cell ("espresso", "quickfit") ];
              [ P.Health; cell w2; cell w1; P.Health ] ]
          in
          let sent = List.length (List.concat mixes) in
          let written0 = written () and simulated0 = simulated_total () in
          let stages0 = status_stages server in
          let failures = Array.make (List.length mixes) None in
          List.mapi
            (fun i mix ->
              Thread.create
                (fun () ->
                  Serve.Client.with_connection (P.Unix_path sock) (fun c ->
                      List.iter
                        (fun req ->
                          match Serve.Client.request c req with
                          | Ok (P.Cell_ok _ | P.Health_ok _) -> ()
                          | Ok r -> failures.(i) <- Some (P.encode_response r)
                          | Error e ->
                              failures.(i) <-
                                Some (Serve.Client.error_to_string e))
                        mix))
                ())
            mixes
          |> List.iter Thread.join;
          Array.iter
            (Option.iter (Alcotest.failf "client: unexpected %s"))
            failures;
          (* A request's access-log line is written after its reply. *)
          let deadline = Unix.gettimeofday () +. 10. in
          while written () - written0 < sent && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.005
          done;
          check_int "access-log counter moved by the requests sent" sent
            (written () - written0);
          let lines =
            In_channel.with_open_text access_log In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (fun l -> l <> "")
          in
          check_int "access-log lines" sent (List.length lines);
          check_int "one cold cell simulated" (simulated0 + 1)
            (simulated_total ());
          let stages = status_stages server in
          List.iter
            (fun name ->
              match List.assoc_opt name stages with
              | None -> Alcotest.failf "/status has no %s stage" name
              | Some (count, p50, p99) ->
                  let before =
                    match List.assoc_opt name stages0 with
                    | Some (n, _, _) -> n
                    | None -> 0
                  in
                  check_bool (name ^ " count grew") true (count > before);
                  check_bool (name ^ " p99 >= p50 >= 0") true
                    (p99 >= p50 && p50 >= 0.))
            [ "read_frame"; "decode"; "encode"; "write_reply" ];
          match status_section server "slow_requests" with
          | Some (Metrics.Export.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "/status slow_requests is empty"))

(* ------------------------------------------------------------------ *)
(* One thread per connection                                          *)
(* ------------------------------------------------------------------ *)

let task_count () = Array.length (Sys.readdir "/proc/self/task")

(* The task count once it has held still for longer than a relay
   helper's idle retirement (0.2 s, Exec.Relay): helper domains left
   idle by earlier cases retire (with their threads) within that
   window, so a count taken after it does not drop under a case's
   feet.  Gives up holding out after 10 s. *)
let settled_task_count () =
  let hold = 0.5 and deadline = Unix.gettimeofday () +. 10. in
  let rec watch n since =
    Thread.delay 0.01;
    let n' = task_count () and t = Unix.gettimeofday () in
    if t > deadline then n'
    else if n' <> n then watch n' t
    else if t -. since >= hold then n
    else watch n since
  in
  watch (task_count ()) (Unix.gettimeofday ())

(* A peer that closes with our reply unread resets the connection: the
   server's next read fails with ECONNRESET.  That must end the
   connection quietly and release its thread. *)
let test_reset_releases_thread () =
  with_server (fun ~sock ~store:_ server ->
      let before = settled_task_count () in
      for _ = 1 to 20 do
        let fd = raw_connect sock in
        P.write_frame fd (P.encode_request P.Health);
        (match Unix.select [ fd ] [] [] 5. with
        | [], _, _ -> Alcotest.fail "no reply within 5 s"
        | _ -> ());
        Unix.close fd
      done;
      let deadline = Unix.gettimeofday () +. 2. in
      let settled () =
        task_count () <= before
        && status_int server [ "connections"; "open" ] = 0
      in
      while (not (settled ())) && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      check_int "threads back to the count before the clients" before
        (task_count ());
      check_int "no open connections" 0
        (status_int server [ "connections"; "open" ]))

(* Five requests written before any reply is read are answered in
   order: each reply echoes its request's id, the request sent without
   one gets a minted id, and the warm repeat of a cold cell carries the
   same artifact bytes. *)
let test_pipelined_in_order () =
  with_server (fun ~sock ~store:_ _server ->
      let fd = raw_connect sock in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let cell =
            P.Run_cell { program = "espresso"; allocator = "bsd"; scale = 0.01 }
          in
          let unknown =
            P.Run_cell { program = "no-such"; allocator = "bsd"; scale = 0.01 }
          in
          List.iter
            (fun (id, req) -> P.write_frame fd (P.encode_request ~id req))
            [ ("a1", P.Health); ("a2", cell); ("a3", unknown); ("", P.Health);
              ("a5", cell) ];
          let echoed id id' = check_string "echoed id" id id' in
          let unexpected n r =
            Alcotest.failf "reply %d: unexpected %s" n (P.encode_response r)
          in
          (match read_reply fd with
          | P.Health_ok _, id -> echoed "a1" id
          | r, _ -> unexpected 1 r);
          let cold =
            match read_reply fd with
            | P.Cell_ok { artifact; _ }, id ->
                echoed "a2" id;
                artifact
            | r, _ -> unexpected 2 r
          in
          (match read_reply fd with
          | P.Error { code = P.Unknown_key; _ }, id -> echoed "a3" id
          | r, _ -> unexpected 3 r);
          (match read_reply fd with
          | P.Health_ok _, id ->
              check_bool
                (Printf.sprintf "minted id %S is valid" id)
                true
                (Telemetry.Rctx.valid_id id)
          | r, _ -> unexpected 4 r);
          match read_reply fd with
          | P.Cell_ok { artifact; _ }, id ->
              echoed "a5" id;
              check_string "warm bytes = cold bytes" cold artifact
          | r, _ -> unexpected 5 r))

(* Shutdown during a cold cell drains: the reply is still written, the
   connection then closes, and run returns. *)
let test_shutdown_drains_cold_cell () =
  with_paths @@ fun sock store_dir ->
  let store = Store.open_ store_dir in
  let server = Serve.Server.create ~jobs:1 ~store ~listen:(P.Unix_path sock) () in
  let returned = Atomic.make false in
  let runner =
    Thread.create
      (fun () ->
        Serve.Server.run server;
        Atomic.set returned true)
      ()
  in
  let program, allocator, scale = ("gs-large", "firstfit", 0.05) in
  let digest = cell_digest ~program ~allocator ~scale in
  let fd = raw_connect sock in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Serve.Server.shutdown server;
      Thread.join runner)
    (fun () ->
      with_held_cell ~digest @@ fun ~release ->
      P.write_frame fd
        (P.encode_request (P.Run_cell { program; allocator; scale }));
      let replied () =
        match Unix.select [ fd ] [] [] 0. with [], _, _ -> false | _ -> true
      in
      let rec in_flight () =
        List.mem digest (fst (status_flights sock))
        || ((not (replied ())) && (Thread.delay 0.002; in_flight ()))
      in
      check_bool "shutdown lands while the cold cell is in flight" true
        (in_flight ());
      Serve.Server.shutdown server;
      release ();
      (match read_reply fd with
      | P.Cell_ok { digest = d; artifact }, _ -> (
          check_string "reply digest" digest d;
          match Store.find store ~digest with
          | Store.Hit payload ->
              check_string "reply = store payload" payload artifact
          | Store.Miss -> Alcotest.fail "cell not written through"
          | Store.Corrupt e -> Alcotest.failf "store corrupt: %s" e)
      | r, _ -> Alcotest.failf "unexpected %s" (P.encode_response r));
      check_bool "EOF after the drained reply" true (P.read_frame fd = Ok None);
      let deadline = Unix.gettimeofday () +. 10. in
      while (not (Atomic.get returned)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      check_bool "run returned" true (Atomic.get returned))

(* ------------------------------------------------------------------ *)
(* Client receive timeout                                             *)
(* test/frames/cell-schema6.art and response-schema6.frame are the
   same cell and Cell_ok reply at artifact schema 6, whose digest
   (part of the reply) is the one a schema-6 server looks the request
   up under. *)
let schema6_digest = "118707bcdda1f4d570f0754cd7ee219c"

(* The checked-in request, sent raw to a server whose store holds the
   checked-in cell, is answered warm with the checked-in reply frame,
   byte for byte; the same request with one byte flipped gets a typed
   Bad_request carrying read_frame's message. *)
let test_checked_in_request_answered () =
  with_server (fun ~sock ~store _server ->
      Out_channel.with_open_bin
        (Filename.concat (Store.root store) (schema6_digest ^ ".art"))
        (fun oc -> output_string oc (read_file (frame_file "cell-schema6.art")));
      let reqf = read_file (frame_file "request.frame") in
      let fd = raw_connect sock in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          P.write_all fd reqf 0 (String.length reqf);
          match P.read_frame fd with
          | Ok (Some p) ->
              check_string "reply frame byte for byte"
                (read_file (frame_file "response-schema6.frame")) p.frame
          | Ok None -> Alcotest.fail "EOF before the reply"
          | Error e -> Alcotest.failf "torn reply: %s" e);
      let fd = raw_connect sock in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let bad = flip reqf 20 in
          P.write_all fd bad 0 (String.length bad);
          match read_reply fd with
          | P.Error { code = P.Bad_request; message }, _ ->
              check_string "Bad_request message"
                "CRC mismatch (stored 0x6d06ce4e, computed 0x28f01ce)" message
          | _ -> Alcotest.fail "expected a Bad_request reply"))

(* ------------------------------------------------------------------ *)

let test_client_receive_timeout () =
  (* A half-open peer: accepts the connection, reads the request, never
     replies.  The client must surface a typed Timeout, not hang. *)
  let sock, _ = fresh_paths () in
  let listener = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX sock);
  Unix.listen listener 1;
  let accepted = ref None in
  let acceptor =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        accepted := Some fd)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join acceptor;
      (match !accepted with Some fd -> Unix.close fd | None -> ());
      Unix.close listener;
      try Sys.remove sock with Sys_error _ -> ())
    (fun () ->
      let c = Serve.Client.connect ~timeout:0.3 (P.Unix_path sock) in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          (match Serve.Client.request c P.Health with
          | Error (Serve.Client.Timeout _) -> ()
          | Ok _ -> Alcotest.fail "a mute server answered?"
          | Error e ->
              Alcotest.failf "expected Timeout, got %s"
                (Serve.Client.error_to_string e));
          check_bool "timed out promptly" true
            (Unix.gettimeofday () -. t0 < 5.0)))

let test_shutdown_removes_socket () =
  let sock_path = ref "" in
  with_server (fun ~sock ~store:_ _ -> sock_path := sock);
  check_bool "socket file unlinked on drain" false (Sys.file_exists !sock_path)

let test_stale_socket_replaced_live_refused () =
  with_paths @@ fun sock store_dir ->
  (* A dead socket file (nothing listening) must be swept and rebound. *)
  let dead = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX sock);
  Unix.close dead;
  check_bool "stale file exists" true (Sys.file_exists sock);
  let store = Store.open_ store_dir in
  let server = Serve.Server.create ~jobs:1 ~store ~listen:(P.Unix_path sock) () in
  let runner = Thread.create Serve.Server.run server in
  (* While it is live, a second bind must refuse loudly. *)
  check_bool "live socket refused" true
    (match Serve.Server.create ~jobs:1 ~store ~listen:(P.Unix_path sock) () with
    | exception Failure _ -> true
    | _ -> false);
  Serve.Server.shutdown server;
  Thread.join runner

let tc name f = Alcotest.test_case name `Quick f
let qt t = QCheck_alcotest.to_alcotest t

let () =
  Random.self_init ();
  Alcotest.run "serve"
    [
      ("addr", [ tc "parse" test_addr_parse; tc "round trip" test_addr_round_trip ]);
      ( "codec",
        [
          tc "request round-trips" test_request_round_trips;
          tc "response round-trips" test_response_round_trips;
          tc "junk rejected" test_decode_rejects_junk;
          tc "version negotiation" test_version_negotiation;
          tc "trace context round-trips" test_trace_context_round_trip;
          tc "every payload is version 3" test_envelope_bytes;
          qt prop_request_round_trip;
          qt prop_response_round_trip;
          qt prop_garbage_never_raises;
        ] );
      ( "framing",
        [
          tc "round trip over fd" test_frame_round_trip_over_fd;
          tc "sniffed prefix" test_frame_sniffed_prefix;
          tc "clean EOF" test_frame_clean_eof;
          tc "truncation at every split" test_frame_truncation_every_split;
          tc "bit flips" test_frame_bit_flips;
          tc "oversized length claim" test_frame_oversized_length_claim;
          tc "bad magic" test_frame_bad_magic;
          tc "one copy of the frame, one of the payload"
            test_frame_read_allocation;
          tc "checked-in frames read back" test_frame_checked_in;
        ] );
      ( "server",
        [
          tc "lifecycle: cold, warm, errors, http" test_integration_lifecycle;
          tc "ingest: cold, warm, typed errors" test_integration_ingest;
          tc "shutdown unlinks the socket" test_shutdown_removes_socket;
          tc "stale socket swept, live refused" test_stale_socket_replaced_live_refused;
          tc "checked-in request answered byte for byte"
            test_checked_in_request_answered;
        ] );
      ( "tracing",
        [
          tc "id propagates to log, status and spans" test_trace_propagation;
          tc "versions 1 and 2 are refused" test_old_versions_refused;
          tc "access log, stages and slow table count mixed traffic"
            test_access_log_and_stages;
        ] );
      ( "http",
        [ tc "400, 405, 404 and /status" test_http_paths ] );
      ( "resolution",
        [
          tc "misfiled payload rejected and healed" test_misfiled_payload_rejected;
          tc "/status answers during a jobs=1 cold cell" test_status_during_cold_cell;
          tc "concurrent cold requests simulate once" test_concurrent_single_flight;
          tc "a worker per core relays nothing" test_worker_per_core_relays_nothing;
          tc "second experiment request reads its derived cell"
            test_experiment_warm_from_store;
        ] );
      ( "connection",
        [
          tc "reset peers release their threads" test_reset_releases_thread;
          tc "pipelined requests answered in order" test_pipelined_in_order;
          tc "shutdown drains a cold cell" test_shutdown_drains_cold_cell;
        ] );
      ( "client",
        [ tc "receive timeout on a mute server" test_client_receive_timeout ] );
    ]
