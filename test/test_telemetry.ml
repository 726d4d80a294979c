(* Tests for the telemetry subsystem: metrics registry semantics (and
   their Prometheus/JSON exports), span tracing, probe windows —
   and the two whole-stack invariants: instrumentation is a no-op when
   disabled, and enabling it never changes simulation results. *)

module M = Telemetry.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* A minimal JSON syntax checker (no values kept): enough to assert    *)
(* that exported documents are well-formed without a json dependency.  *)
(* ------------------------------------------------------------------ *)

let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then advance () else fail () in
  let literal w =
    String.iter (fun c -> expect c) w
  in
  let parse_string () =
    expect '"';
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> fail ()
      | Some '"' -> advance (); fin := true
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail ()
              done
          | _ -> fail ())
      | Some c when Char.code c < 0x20 -> fail ()
      | Some _ -> advance ()
    done
  in
  let parse_number () =
    if peek () = Some '-' then advance ();
    let digits () =
      let seen = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        seen := true;
        advance ()
      done;
      if not !seen then fail ()
    in
    digits ();
    if peek () = Some '.' then (advance (); digits ());
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ())
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> parse_string ()
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else begin
          let fin = ref false in
          while not !fin do
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' -> advance (); fin := true
            | _ -> fail ()
          done
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else begin
          let fin = ref false in
          while not !fin do
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' -> advance (); fin := true
            | _ -> fail ()
          done
        end
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some _ -> parse_number ()
    | None -> fail ()
  in
  match
    parse_value ();
    skip_ws ();
    if !pos <> n then fail ()
  with
  | () -> true
  | exception Exit -> false

let contains ~sub s =
  let ns = String.length s and nb = String.length sub in
  let rec go i = i + nb <= ns && (String.sub s i nb = sub || go (i + 1)) in
  nb = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Metrics: counters, gauges, histograms                               *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let reg = M.create () in
  let fam = M.Counter.family ~registry:reg ~name:"t_total" ~help:"h" () in
  let c = M.Counter.labels fam [] in
  M.Counter.inc c;
  check_int "disabled registry ignores inc" 0 (M.Counter.value c);
  M.set_enabled reg true;
  M.Counter.inc c;
  M.Counter.inc ~by:5 c;
  check_int "inc accumulates" 6 (M.Counter.value c);
  M.Counter.inc ~by:0 c;
  check_int "by:0 allowed" 6 (M.Counter.value c);
  Alcotest.check_raises "negative by rejected"
    (Invalid_argument "Telemetry.Metrics.Counter.inc: by must be >= 0")
    (fun () -> M.Counter.inc ~by:(-1) c)

let test_counter_labels () =
  let reg = M.create () in
  M.set_enabled reg true;
  let fam =
    M.Counter.family ~registry:reg ~name:"t_lbl_total" ~help:"h"
      ~labels:[ "alloc"; "outcome" ] ()
  in
  let a = M.Counter.labels fam [ "firstfit"; "hit" ] in
  let b = M.Counter.labels fam [ "firstfit"; "miss" ] in
  M.Counter.inc a;
  M.Counter.inc b;
  M.Counter.inc b;
  check_int "children are distinct" 1 (M.Counter.value a);
  check_int "second child" 2 (M.Counter.value b);
  let a' = M.Counter.labels fam [ "firstfit"; "hit" ] in
  M.Counter.inc a';
  check_int "same labels resolve to same child" 2 (M.Counter.value a);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Telemetry.Metrics: expected 2 label values, got 1")
    (fun () -> ignore (M.Counter.labels fam [ "firstfit" ]))

let test_registry_rejects () =
  let reg = M.create () in
  ignore (M.Counter.family ~registry:reg ~name:"dup_total" ~help:"h" ());
  check_bool "duplicate name rejected" true
    (match M.Gauge.family ~registry:reg ~name:"dup_total" ~help:"h" () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "malformed metric name rejected" true
    (match M.Counter.family ~registry:reg ~name:"bad name" ~help:"h" () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "malformed label name rejected" true
    (match
       M.Counter.family ~registry:reg ~name:"ok_total" ~help:"h"
         ~labels:[ "0bad" ] ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_gauge () =
  let reg = M.create () in
  let fam = M.Gauge.family ~registry:reg ~name:"t_gauge" ~help:"h" () in
  let g = M.Gauge.labels fam [] in
  M.Gauge.set g 5;
  check_int "disabled registry ignores set" 0 (M.Gauge.value g);
  M.set_enabled reg true;
  M.Gauge.set g 42;
  M.Gauge.add g (-2);
  check_int "set then add" 40 (M.Gauge.value g)

let test_histogram () =
  let reg = M.create () in
  M.set_enabled reg true;
  let fam = M.Histogram.family ~registry:reg ~name:"t_hist" ~help:"h" () in
  let h = M.Histogram.labels fam [] in
  List.iter (M.Histogram.observe h) [ 1; 1; 3; 100; 0; -5 ];
  check_int "count" 6 (M.Histogram.count h);
  (* -5 clamps to 0. *)
  check_int "sum" 105 (M.Histogram.sum h);
  Alcotest.(check (float 0.01)) "mean" 17.5 (M.Histogram.mean h);
  match M.snapshot reg with
  | [ { M.samples = [ { M.v = M.Histogram_v hs; _ } ]; _ } ] ->
      check_int "sample count" 6 hs.M.count;
      check_int "sample sum" 105 hs.M.sum;
      (* Buckets are cumulative and end at +Inf. *)
      let rec monotone = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      check_bool "buckets cumulative" true (monotone hs.M.buckets);
      (match List.rev hs.M.buckets with
      | (inf, total) :: _ ->
          check_bool "last bound is +Inf" true (inf = infinity);
          check_int "last bucket = count" 6 total
      | [] -> Alcotest.fail "no buckets");
      (* le=1 holds the two 1s, the 0 and the clamped -5. *)
      let le1 = List.assoc 1. hs.M.buckets in
      check_int "le=1 cumulative" 4 le1
  | _ -> Alcotest.fail "expected one family with one histogram sample"

let test_histogram_quantile () =
  let reg = M.create () in
  M.set_enabled reg true;
  let fam = M.Histogram.family ~registry:reg ~name:"t_quant" ~help:"h" () in
  let h = M.Histogram.labels fam [] in
  Alcotest.(check (float 0.)) "empty histogram" 0. (M.Histogram.quantile h 0.5);
  (* 100 observations of 100: every quantile lands in the (64, 128]
     bucket, whose interpolated estimates stay inside it. *)
  for _ = 1 to 100 do
    M.Histogram.observe h 100
  done;
  List.iter
    (fun q ->
      let v = M.Histogram.quantile h q in
      check_bool
        (Printf.sprintf "q=%g inside the occupied bucket" q)
        true
        (v >= 64. && v <= 128.))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* Clamping: out-of-range q behaves as 0/1, never raises. *)
  Alcotest.(check (float 0.))
    "q clamped low" (M.Histogram.quantile h 0.) (M.Histogram.quantile h (-3.));
  Alcotest.(check (float 0.))
    "q clamped high" (M.Histogram.quantile h 1.) (M.Histogram.quantile h 7.);
  (* A bimodal stream: the median stays in the low mode's bucket, the
     p99 reaches the high mode's. *)
  let fam2 = M.Histogram.family ~registry:reg ~name:"t_quant2" ~help:"h" () in
  let h2 = M.Histogram.labels fam2 [] in
  for _ = 1 to 90 do
    M.Histogram.observe h2 10
  done;
  for _ = 1 to 10 do
    M.Histogram.observe h2 10_000
  done;
  check_bool "p50 in the low mode" true (M.Histogram.quantile h2 0.5 <= 16.);
  check_bool "p99 in the high mode" true (M.Histogram.quantile h2 0.99 > 8192.)

let test_shards_merge () =
  let reg = M.create () in
  M.set_enabled reg true;
  let fam = M.Counter.family ~registry:reg ~name:"t_dom_total" ~help:"h" () in
  let c = M.Counter.labels fam [] in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              M.Counter.inc c
            done))
  in
  List.iter Domain.join domains;
  M.Counter.inc ~by:10 c;
  check_int "shards merge across domains" 4010 (M.Counter.value c)

(* ------------------------------------------------------------------ *)
(* Exports                                                             *)
(* ------------------------------------------------------------------ *)

let sample_registry () =
  let reg = M.create () in
  M.set_enabled reg true;
  let cf =
    M.Counter.family ~registry:reg ~name:"t_exp_total" ~help:"a \"counter\""
      ~labels:[ "who" ] ()
  in
  M.Counter.inc ~by:3 (M.Counter.labels cf [ "a\\b\nc\"d" ]);
  let gf = M.Gauge.family ~registry:reg ~name:"t_exp_gauge" ~help:"g" () in
  M.Gauge.set (M.Gauge.labels gf []) 7;
  let hf = M.Histogram.family ~registry:reg ~name:"t_exp_hist" ~help:"h" () in
  let h = M.Histogram.labels hf [] in
  List.iter (M.Histogram.observe h) [ 1; 2; 900 ];
  reg

let test_prometheus_export () =
  let text = M.to_prometheus (M.snapshot (sample_registry ())) in
  let lines = String.split_on_char '\n' text in
  check_bool "ends with newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  (* Every line is a comment or "name{labels} value" with a numeric
     value; sample names may only extend the family name with _bucket /
     _sum / _count. *)
  List.iter
    (fun line ->
      if line = "" || String.length line >= 2 && String.sub line 0 2 = "# "
      then ()
      else begin
        let sp = String.rindex line ' ' in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        check_bool
          ("numeric value in: " ^ line)
          true
          (match float_of_string_opt value with Some _ -> true | None -> false);
        check_bool
          ("known family in: " ^ line)
          true
          (List.exists
             (fun p ->
               String.length line >= String.length p
               && String.sub line 0 (String.length p) = p)
             [ "t_exp_total"; "t_exp_gauge"; "t_exp_hist" ])
      end)
    lines;
  (* The escaped label value round-trips the escapes. *)
  check_bool "label value escaped" true
    (List.exists
       (fun l ->
         l = "t_exp_total{who=\"a\\\\b\\nc\\\"d\"} 3")
       lines);
  (* HELP text escapes its quotes' line breaks per the format. *)
  check_bool "has HELP" true
    (List.exists (fun l -> l = "# HELP t_exp_total a \"counter\"") lines);
  check_bool "has TYPE histogram" true
    (List.mem "# TYPE t_exp_hist histogram" lines);
  check_bool "histogram +Inf bucket" true
    (List.mem "t_exp_hist_bucket{le=\"+Inf\"} 3" lines);
  check_bool "histogram _sum" true (List.mem "t_exp_hist_sum 903" lines);
  check_bool "histogram _count" true (List.mem "t_exp_hist_count 3" lines)

let test_json_export () =
  let json = M.to_json (M.snapshot (sample_registry ())) in
  check_bool "metrics JSON well-formed" true (json_well_formed json)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* The tracer is process-global: each test leaves it disabled+empty. *)
let with_tracer f =
  Telemetry.Span.reset ();
  Telemetry.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Span.set_enabled false;
      Telemetry.Span.reset ())
    f

let test_span_disabled () =
  Telemetry.Span.reset ();
  Telemetry.Span.set_enabled false;
  check_int "disabled with_span runs thunk"
    42
    (Telemetry.Span.with_span ~cat:"t" "x" (fun () -> 42));
  Telemetry.Span.instant ~cat:"t" "marker";
  check_int "nothing recorded" 0 (Telemetry.Span.recorded ())

let test_span_records () =
  with_tracer @@ fun () ->
  check_string "result passes through" "ok"
    (Telemetry.Span.with_span ~cat:"cell" "a/b" (fun () -> "ok"));
  Telemetry.Span.instant ~cat:"cell" "tick";
  check_int "two events" 2 (Telemetry.Span.recorded ());
  check_int "none dropped" 0 (Telemetry.Span.dropped ());
  let json = Telemetry.Span.to_chrome_json () in
  check_bool "chrome JSON well-formed" true (json_well_formed json);
  check_bool "has traceEvents" true (contains ~sub:"\"traceEvents\"" json)

let test_span_exception () =
  with_tracer @@ fun () ->
  check_bool "exception re-raised" true
    (match
       Telemetry.Span.with_span ~cat:"t" "boom" (fun () -> failwith "boom")
     with
    | _ -> false
    | exception Failure _ -> true);
  check_int "failed span still recorded" 1 (Telemetry.Span.recorded ())

let test_span_ring_overflow () =
  Telemetry.Span.reset ~capacity:4 ();
  Telemetry.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Span.set_enabled false;
      Telemetry.Span.reset ())
    (fun () ->
      for i = 1 to 7 do
        Telemetry.Span.instant ~cat:"t" (string_of_int i)
      done;
      check_int "ring holds capacity" 4 (Telemetry.Span.recorded ());
      check_int "overwrites counted" 3 (Telemetry.Span.dropped ());
      let json = Telemetry.Span.to_chrome_json () in
      (* Oldest events were overwritten: "4".."7" remain. *)
      check_bool "oldest gone" true (not (contains ~sub:"\"name\":\"3\"" json));
      check_bool "newest kept" true (contains ~sub:"\"name\":\"7\"" json))

(* ------------------------------------------------------------------ *)
(* Request contexts                                                    *)
(* ------------------------------------------------------------------ *)

module Rctx = Telemetry.Rctx

let with_rctx f =
  Rctx.Slow.reset ();
  Rctx.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Rctx.set_enabled false;
      Rctx.Slow.reset ())
    f

let is_hex s =
  s <> ""
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let test_rctx_ids () =
  let id = Rctx.fresh_id () in
  check_int "fresh id is 16 digits" 16 (String.length id);
  check_bool "fresh id is lowercase hex" true (is_hex id);
  check_bool "fresh ids differ" true (Rctx.fresh_id () <> id);
  check_bool "valid: 1 digit" true (Rctx.valid_id "a");
  check_bool "valid: 32 digits" true (Rctx.valid_id (String.make 32 'f'));
  check_bool "valid: uppercase accepted" true (Rctx.valid_id "DEADBEEF");
  check_bool "invalid: empty" false (Rctx.valid_id "");
  check_bool "invalid: 33 digits" false (Rctx.valid_id (String.make 33 'f'));
  check_bool "invalid: non-hex" false (Rctx.valid_id "xyz");
  with_rctx @@ fun () ->
  let t = Rctx.create ~id:"DEADbeef" ~kind:"cell" ~peer:"unix" () in
  check_string "valid id adopted lowercased" "deadbeef" (Rctx.id t);
  let t = Rctx.create ~id:"not-hex!" ~kind:"cell" ~peer:"unix" () in
  check_bool "invalid id replaced by a mint" true (is_hex (Rctx.id t));
  let t = Rctx.create ~kind:"cell" ~peer:"unix" () in
  check_int "absent id minted" 16 (String.length (Rctx.id t))

let test_rctx_stages () =
  with_rctx @@ fun () ->
  let t = Rctx.create ~kind:"cell" ~peer:"unix" () in
  Rctx.record_stage t "read_frame" ~start_us:0. ~dur_us:12.;
  check_int "staged thunk result" 7 (Rctx.stage t "simulate" (fun () -> 7));
  check_bool "raising stage re-raises and records" true
    (match Rctx.stage t "encode" (fun () -> failwith "boom") with
    | _ -> false
    | exception Failure _ -> true);
  Rctx.set_outcome t "ok";
  Rctx.set_warm t false;
  Rctx.add_bytes_in t 10;
  Rctx.add_bytes_out t 20;
  let fin = Rctx.finish t in
  check_bool "stages in execution order" true
    (List.map (fun (s : Rctx.stage) -> s.sname) fin.stages
    = [ "read_frame"; "simulate"; "encode" ]);
  check_bool "recorded duration kept" true
    ((List.hd fin.stages).sdur_us = 12.);
  check_bool "total covers the request" true (fin.total_us >= 0.);
  check_bool "warm carried" true (fin.warm = Some false);
  check_int "bytes in" 10 fin.bytes_in;
  check_int "bytes out" 20 fin.bytes_out

let test_rctx_disabled_is_free () =
  Rctx.set_enabled false;
  let t = Rctx.create ~kind:"cell" ~peer:"unix" () in
  check_int "disabled stage runs thunk" 9 (Rctx.stage t "simulate" (fun () -> 9));
  let fin = Rctx.finish t in
  check_int "no stages recorded" 0 (List.length fin.stages);
  check_bool "zero total" true (fin.total_us = 0.)

let fin_with ~id ~total_us : Rctx.finished =
  {
    id;
    kind = "cell";
    peer = "unix";
    cell = "";
    outcome = "ok";
    warm = None;
    bytes_in = 0;
    bytes_out = 0;
    wall_start = 0.;
    total_us;
    stages = [];
  }

let test_rctx_slow_ring () =
  with_rctx @@ fun () ->
  (* Nine requests into a ring of eight: the 10 us one drops out. *)
  List.iter
    (fun (id, total_us) -> Rctx.Slow.note (fin_with ~id ~total_us))
    [ ("a", 10.); ("b", 30.); ("c", 20.); ("d", 90.); ("e", 50.);
      ("f", 70.); ("g", 40.); ("h", 80.); ("i", 60.) ];
  let ids = List.map (fun (f : Rctx.finished) -> f.id) (Rctx.Slow.snapshot ()) in
  Alcotest.(check (list string))
    "keeps the eight slowest, slowest first"
    [ "d"; "h"; "f"; "i"; "e"; "g"; "b"; "c" ]
    ids

let test_rctx_json () =
  check_string "epoch" "1970-01-01T00:00:00.000000Z" (Rctx.iso8601 0.);
  check_string "fractional seconds" "1970-01-01T00:00:01.500000Z"
    (Rctx.iso8601 1.5);
  let fin =
    {
      (fin_with ~id:"cafe" ~total_us:42.5) with
      cell = "digest123";
      warm = Some true;
      stages = [ { Rctx.sname = "simulate"; sstart_us = 0.; sdur_us = 40. } ];
    }
  in
  let s = Metrics.Export.to_string (Rctx.to_json fin) in
  check_bool "json has the id" true (contains ~sub:"\"request_id\":\"cafe\"" s);
  check_bool "json has the stage" true (contains ~sub:"\"simulate\":40" s);
  check_bool "json has warm" true (contains ~sub:"\"warm\":true" s);
  check_bool "json has the ts" true
    (contains ~sub:"\"ts\":\"1970-01-01T00:00:00.000000Z\"" s);
  check_bool "json well-formed" true (json_well_formed s);
  let empty_cell = Metrics.Export.to_string (Rctx.to_json (fin_with ~id:"x" ~total_us:0.)) in
  check_bool "empty cell is null" true (contains ~sub:"\"cell\":null" empty_cell)

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

let mk_event i = Memsim.Event.read (4 * i) 4

let test_windows_per_event () =
  let closes = ref [] in
  let w =
    Telemetry.Probe.Windows.create ~every:3 ~f:(fun ~window ~events ->
        closes := (window, events) :: !closes)
  in
  let s = Telemetry.Probe.Windows.sink w in
  (* One event per delivery: windows close at exact multiples. *)
  for i = 1 to 7 do
    s (Memsim.Event.Batch.of_events [| mk_event i |] 1)
  done;
  check_bool "closes at exact multiples" true
    (List.rev !closes = [ (1, 3); (2, 6) ]);
  Telemetry.Probe.Windows.flush w;
  check_bool "flush closes the partial window" true
    (List.rev !closes = [ (1, 3); (2, 6); (3, 7) ]);
  Telemetry.Probe.Windows.flush w;
  check_int "flush is idempotent" 3 (Telemetry.Probe.Windows.windows_fired w);
  check_int "events seen" 7 (Telemetry.Probe.Windows.events_seen w)

let test_windows_batch () =
  let closes = ref [] in
  let w =
    Telemetry.Probe.Windows.create ~every:10 ~f:(fun ~window ~events ->
        closes := (window, events) :: !closes)
  in
  let s = Telemetry.Probe.Windows.sink w in
  let deliver n =
    s (Memsim.Event.Batch.of_events (Array.init n mk_event) n)
  in
  (* Batches are indivisible: a 25-event batch crosses two window edges
     but closes only one window, at the batch boundary. *)
  deliver 25;
  check_bool "one close per delivery" true (List.rev !closes = [ (1, 25) ]);
  deliver 4;
  check_bool "short batch below edge" true (List.rev !closes = [ (1, 25) ]);
  deliver 1;
  (* 30 seen, last close at 25: not yet 10 past. *)
  check_bool "edge is relative to last close" true
    (List.rev !closes = [ (1, 25) ]);
  deliver 5;
  check_bool "next close at 35" true (List.rev !closes = [ (1, 25); (2, 35) ])

let test_windows_rejects () =
  Alcotest.check_raises "every < 1"
    (Invalid_argument "Probe.Windows.create: every must be >= 1")
    (fun () ->
      ignore
        (Telemetry.Probe.Windows.create ~every:0 ~f:(fun ~window:_ ~events:_ ->
             ())))

(* ------------------------------------------------------------------ *)
(* Whole-stack invariants                                              *)
(* ------------------------------------------------------------------ *)

let run_cell ~allocator =
  let checksum = Memsim.Sink.Checksum.create () in
  let result =
    Workload.Driver.run
      ~sink:(Memsim.Sink.Checksum.sink checksum)
      ~scale:0.05
      ~profile:(Workload.Programs.find "espresso")
      ~allocator ()
  in
  (Memsim.Sink.Checksum.value checksum, result)

(* Enabling every telemetry layer must not move a single simulated
   event: the trace checksum is bit-identical with telemetry on and
   off.  This is the "zero cost when disabled" invariant's stronger
   sibling — observation changes nothing even when enabled. *)
let test_telemetry_does_not_perturb () =
  let on_off allocator =
    M.set_enabled M.default false;
    Telemetry.Span.set_enabled false;
    let off, _ = run_cell ~allocator in
    M.set_enabled M.default true;
    Telemetry.Span.reset ();
    Telemetry.Span.set_enabled true;
    let on, _ =
      Fun.protect
        ~finally:(fun () ->
          M.set_enabled M.default false;
          Telemetry.Span.set_enabled false;
          Telemetry.Span.reset ())
        (fun () -> run_cell ~allocator)
    in
    check_int ("checksum unchanged under telemetry: " ^ allocator) off on
  in
  on_off "firstfit";
  on_off "quickfit"

(* The paper's search-cost contrast, measured: sequential fits walk
   free lists (BestFit exhaustively), size-class allocators touch a
   constant number of blocks.  BSD's mean is exactly 1; the sequential
   fits must exceed the size-class allocators, with the exhaustive
   scan the clear outlier. *)
let test_search_length_contrast () =
  M.set_enabled M.default true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled M.default false)
    (fun () ->
      let mean allocator =
        let h = Allocators.Alloc_metrics.search_length ~allocator in
        let c0 = M.Histogram.count h and s0 = M.Histogram.sum h in
        ignore (run_cell ~allocator);
        let dc = M.Histogram.count h - c0 and ds = M.Histogram.sum h - s0 in
        check_bool ("recorded searches: " ^ allocator) true (dc > 0);
        float_of_int ds /. float_of_int dc
      in
      let firstfit = mean "firstfit" in
      let bestfit = mean "bestfit" in
      let quickfit = mean "quickfit" in
      let bsd = mean "bsd" in
      Alcotest.(check (float 0.0001)) "bsd is constant-time" 1.0 bsd;
      check_bool "quickfit stays near constant" true (quickfit < 2.);
      check_bool "firstfit walks further than quickfit" true
        (firstfit > quickfit);
      check_bool "exhaustive bestfit dwarfs quickfit" true
        (bestfit >= 3. *. quickfit);
      (* Size-class outcome counters moved too. *)
      check_bool "quickfit size-class outcomes recorded" true
        (M.Counter.value
           (Allocators.Alloc_metrics.sizeclass ~allocator:"quickfit"
              ~outcome:"hit")
         > 0))

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter labels" `Quick test_counter_labels;
          Alcotest.test_case "registry rejects" `Quick test_registry_rejects;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram quantile" `Quick
            test_histogram_quantile;
          Alcotest.test_case "shards merge" `Quick test_shards_merge;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus text" `Quick test_prometheus_export;
          Alcotest.test_case "json" `Quick test_json_export;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_span_disabled;
          Alcotest.test_case "records and exports" `Quick test_span_records;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "ring overflow" `Quick test_span_ring_overflow;
        ] );
      ( "rctx",
        [
          Alcotest.test_case "ids: mint, validate, adopt" `Quick test_rctx_ids;
          Alcotest.test_case "stages record in order" `Quick test_rctx_stages;
          Alcotest.test_case "disabled is free" `Quick
            test_rctx_disabled_is_free;
          Alcotest.test_case "slow ring keeps the slowest" `Quick
            test_rctx_slow_ring;
          Alcotest.test_case "access-log json shape" `Quick test_rctx_json;
        ] );
      ( "probe",
        [
          Alcotest.test_case "windows per-event" `Quick test_windows_per_event;
          Alcotest.test_case "windows batch" `Quick test_windows_batch;
          Alcotest.test_case "windows rejects" `Quick test_windows_rejects;
        ] );
      ( "stack",
        [
          Alcotest.test_case "telemetry does not perturb" `Quick
            test_telemetry_does_not_perturb;
          Alcotest.test_case "search-length contrast" `Quick
            test_search_length_contrast;
        ] );
    ]
