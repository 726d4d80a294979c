(* The loclab simulation service.

   One accept loop; per connection, one thread that reads a frame,
   decodes it, executes it and writes the reply, then reads the next.
   One request is in flight per connection, so pipelined requests are
   answered in order and the kernel socket buffers are the
   backpressure: a client that pipelines faster than the server
   answers simply blocks once they fill.  A failed read (a peer reset)
   ends the connection quietly.  Simulation work is parked on the
   shared Exec.Pool via async/await, so CPU runs on worker domains
   while the (I/O-bound) connection threads multiplex; identical
   concurrent cold requests are deduplicated to one simulation by a
   single-flight table keyed by the cell digest.

   Every request carries a Telemetry.Rctx from the frame read to the
   reply write: the connection thread stamps read_frame/decode and
   adopts (or mints) the request id, the execution helpers stamp
   store_lookup / simulate / single_flight_wait / encode / write_reply,
   and finish fans the result out to the per-stage histograms, the
   slow-request table, the span ring, and — when configured — the
   JSON-lines access log.

   Threads suit the connection layer (blocking reads, shared store and
   single-flight state under mutexes); domains suit the simulations
   (compute-bound, no shared state).  The same split the grid prefetch
   uses, now behind a socket. *)

module Export = Metrics.Export  (* the metrics library's JSON values *)
module Metrics = Telemetry.Metrics
module Rctx = Telemetry.Rctx

let src = Logs.Src.create "loclab.serve" ~doc:"loclab serve"

module Log = (val Logs.src_log src : Logs.LOG)

(* ---- metrics -------------------------------------------------------- *)

let m_requests =
  Metrics.Counter.family ~name:"loclab_serve_requests_total"
    ~help:"Requests answered, by request kind." ~labels:[ "kind" ] ()

let m_errors =
  Metrics.Counter.family ~name:"loclab_serve_errors_total"
    ~help:"Error responses sent, by error code." ~labels:[ "code" ] ()

let m_duration =
  Metrics.Histogram.family ~name:"loclab_serve_request_duration_us"
    ~help:"Request handling latency in microseconds." ()

let m_stage =
  Metrics.Histogram.family ~name:"loclab_serve_stage_duration_us"
    ~help:"Per-stage request latency in microseconds." ~labels:[ "stage" ] ()

let m_connections =
  Metrics.Gauge.family ~name:"loclab_serve_connections"
    ~help:"Open connections." ()

let m_spans_dropped =
  Metrics.Gauge.family ~name:"loclab_spans_dropped"
    ~help:"Span-ring events overwritten because the ring was full." ()

let m_access_dropped =
  Metrics.Counter.family ~name:"loclab_access_log_dropped_total"
    ~help:"Access-log lines not written, by reason (write_error)."
    ~labels:[ "reason" ] ()

let m_access_written =
  Metrics.Counter.family ~name:"loclab_access_log_written_total"
    ~help:"Access-log lines written." ()

let h_duration = Metrics.Histogram.labels m_duration []
let g_connections = Metrics.Gauge.labels m_connections []
let g_spans_dropped = Metrics.Gauge.labels m_spans_dropped []

let c_access_write_error =
  Metrics.Counter.labels m_access_dropped [ "write_error" ]

let c_access_written = Metrics.Counter.labels m_access_written []

(* The stage vocabulary is closed (DESIGN.md §11); resolve the handles
   once. *)
let stage_names =
  [ "read_frame"; "decode"; "parse"; "store_lookup"; "simulate";
    "single_flight_wait"; "encode"; "write_reply" ]

let h_stages =
  List.map (fun s -> (s, Metrics.Histogram.labels m_stage [ s ])) stage_names

let observe_stage (s : Rctx.stage) =
  match List.assoc_opt s.Rctx.sname h_stages with
  | Some h -> Metrics.Histogram.observe h (int_of_float s.Rctx.sdur_us)
  | None -> ()

(* Everything around the payload: magic, length word, CRC word. *)
let frame_overhead = String.length Protocol.magic + 16

type conn = { cid : int; fd : Unix.file_descr; peer : string }

(* ---- access log ----------------------------------------------------- *)

type access = {
  ach : out_channel;
  aclose : bool;  (* close on shutdown ("-" = stdout stays open) *)
  amu : Mutex.t;
}

let open_access_log path =
  let ach, aclose =
    if path = "-" then (stdout, false)
    else (open_out_gen [ Open_append; Open_creat ] 0o644 path, true)
  in
  { ach; aclose; amu = Mutex.create () }

(* ---- server state --------------------------------------------------- *)

(* One in-progress single-flight computation: a reply payload and
   whether it came from the store. *)
type flight = {
  mutable outcome : (string * bool, exn * Printexc.raw_backtrace) result option;
}

type t = {
  listen_fd : Unix.file_descr;
  listen_addr : Protocol.addr;  (* resolved: TCP port 0 becomes real *)
  sock_path : string option;  (* AF_UNIX path to unlink on shutdown *)
  store : Store.t option;
  pool : Exec.Pool.t;
  started : float;
  access : access option;
  stopping : bool Atomic.t;
  conns_mu : Mutex.t;
  mutable conns : (conn * Thread.t) list;
  mutable next_cid : int;
  (* single-flight: digest (or experiment key) -> in-progress flight *)
  sf_mu : Mutex.t;
  sf_landed : Condition.t;  (* some flight's outcome arrived *)
  sf : (string, flight) Hashtbl.t;
  (* counters behind /status *)
  requests : int Atomic.t;
  errors : int Atomic.t;
  warm : int Atomic.t;
  simulated : int Atomic.t;
  inflight : int Atomic.t;
  open_conns : int Atomic.t;
}

(* Unlink a leftover socket file only when nothing answers on it: a
   stale path from a crashed server must not block restart, but a live
   sibling server must not be evicted. *)
let clear_stale_unix_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith (Printf.sprintf "address unix:%s is already being served" path);
    try Unix.unlink path with Unix.Unix_error _ -> ()
  end

let server_version = "loclab/1.0.0"

let create ?(jobs = 1) ?store ?access_log ~listen:requested () =
  (* A dead client mid-write must surface as EPIPE, not kill the
     process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Metrics.set_enabled Metrics.default true;
  Rctx.set_enabled true;
  let access = Option.map open_access_log access_log in
  let listen_fd, listen_addr, sock_path =
    match requested with
    | Protocol.Unix_path path ->
        clear_stale_unix_socket path;
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.bind fd (Unix.ADDR_UNIX path)
         with e -> (try Unix.close fd with _ -> ()); raise e);
        (fd, requested, Some path)
    | Protocol.Tcp (host, port) ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.setsockopt fd Unix.SO_REUSEADDR true;
           Unix.bind fd (Unix.ADDR_INET (Protocol.resolve_host host, port))
         with e -> (try Unix.close fd with _ -> ()); raise e);
        let bound =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> Protocol.Tcp (host, p)
          | _ -> requested
        in
        (fd, bound, None)
  in
  Unix.listen listen_fd 64;
  { listen_fd;
    listen_addr;
    sock_path;
    store;
    pool = Exec.Pool.create ~jobs;
    started = Unix.gettimeofday ();
    access;
    stopping = Atomic.make false;
    conns_mu = Mutex.create ();
    conns = [];
    next_cid = 0;
    sf_mu = Mutex.create ();
    sf_landed = Condition.create ();
    sf = Hashtbl.create 16;
    requests = Atomic.make 0;
    errors = Atomic.make 0;
    warm = Atomic.make 0;
    simulated = Atomic.make 0;
    inflight = Atomic.make 0;
    open_conns = Atomic.make 0 }

let listen_addr t = t.listen_addr

let access_log_write t fin =
  match t.access with
  | None -> ()
  | Some a ->
      Mutex.lock a.amu;
      (match
         output_string a.ach (Export.to_string (Rctx.to_json fin));
         output_char a.ach '\n';
         flush a.ach
       with
      | () -> Metrics.Counter.inc c_access_written
      | exception Sys_error _ -> Metrics.Counter.inc c_access_write_error);
      Mutex.unlock a.amu

(* Every GET /metrics funnels through here, so derived gauges are
   fresh. *)
let prometheus_text () =
  Metrics.Gauge.set g_spans_dropped (Telemetry.Span.dropped ());
  Metrics.to_prometheus (Metrics.snapshot Metrics.default)

(* ---- request execution ---------------------------------------------- *)

(* The CLI's scale rule, answered as a Bad_request. *)
let check_scale scale =
  Result.map_error
    (fun msg -> (Protocol.Bad_request, msg))
    (Core.Context.Options.check_scale scale)

(* Deduplicate identical concurrent work: the first arrival registers
   a flight under [sf_mu], releases the lock, and only then computes on
   the pool, so neither /status nor any other key waits behind a
   simulation — even at jobs = 1, where the pool runs the task inline
   on the leader's thread.  Later arrivals wait for the flight's
   outcome.  The table entry lives exactly as long as the computation,
   so a completed (or failed) key recomputes freshly next time.  The
   wait is the request's dominant stage: "simulate" for the leader,
   "single_flight_wait" for a deduplicated follower. *)
let single_flight t rctx key compute =
  let settle flight =
    match flight.outcome with
    | Some (Ok v) -> v
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None -> assert false
  in
  Mutex.lock t.sf_mu;
  match Hashtbl.find_opt t.sf key with
  | Some flight ->
      Rctx.stage rctx "single_flight_wait" (fun () ->
          while Option.is_none flight.outcome do
            Condition.wait t.sf_landed t.sf_mu
          done;
          Mutex.unlock t.sf_mu);
      settle flight
  | None ->
      let flight = { outcome = None } in
      Hashtbl.replace t.sf key flight;
      Mutex.unlock t.sf_mu;
      let outcome =
        Rctx.stage rctx "simulate" (fun () ->
            match Exec.Pool.await (Exec.Pool.async t.pool compute) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      in
      Mutex.lock t.sf_mu;
      flight.outcome <- Some outcome;
      Hashtbl.remove t.sf key;
      Condition.broadcast t.sf_landed;
      Mutex.unlock t.sf_mu;
      settle flight

(* Every cell request, synthetic or ingested, ends here.  Warm: the
   store's payload, accepted by Core's validated read, straight from
   the connection thread.  Cold: a single-flighted call into Core's
   resolve, whose own validated read answers a flight that lands after
   another one filled the store; a simulated artifact is written
   through, and Artifact.encode is exactly what the store persists, so
   warm and cold replies are byte-identical for the same cell. *)
let resolve_cell t rctx ~digest ~scale resolve =
  Rctx.set_cell rctx digest;
  let warm =
    Rctx.stage rctx "store_lookup" (fun () ->
        Option.bind t.store (fun store -> Core.Runs.read store ~digest))
  in
  let artifact, was_warm =
    match warm with
    | Some (payload, _) -> (payload, true)
    | None ->
        single_flight t rctx digest (fun () ->
            let runs = Core.Runs.create ~scale ?store:t.store () in
            let art = resolve runs in
            (Core.Artifact.encode art, Core.Runs.store_hits runs > 0))
  in
  Atomic.incr (if was_warm then t.warm else t.simulated);
  Rctx.set_warm rctx was_warm;
  Result.Ok (Protocol.Cell_ok { digest; artifact })

let run_cell t rctx ~program ~allocator ~scale =
  match check_scale scale with
  | Result.Error _ as e -> e
  | Result.Ok scale -> (
      match Core.Runs.check_cell ~program ~allocator with
      | Result.Error e ->
          Result.Error (Protocol.Unknown_key, Core.Runs.cell_error_message e)
      | Result.Ok profile ->
          let digest =
            Core.Artifact.digest ~program ~allocator ~scale
              ~seed:profile.Workload.Profile.seed
          in
          resolve_cell t rctx ~digest ~scale (fun runs ->
              Core.Runs.get runs ~profile:program ~allocator))

let run_experiment t rctx ~id ~scale =
  match check_scale scale with
  | Result.Error _ as e -> e
  | Result.Ok scale -> (
      match Core.Experiment.find id with
      | exception Not_found ->
          Result.Error
            (Protocol.Unknown_key, Printf.sprintf "unknown experiment %S" id)
      | _ ->
          (* The context renders through the store: grid cells and an
             off-grid experiment's derived cell are read back when warm
             and written through when computed. *)
          let key = Printf.sprintf "exp:%s:%h" id scale in
          Rctx.set_cell rctx key;
          let text, _ =
            single_flight t rctx key (fun () ->
                (* jobs:1 inside the request: the request itself already
                   occupies a pool worker, so nesting another fan-out
                   would oversubscribe the machine. *)
                let ctx =
                  Core.Context.create ~scale ~jobs:1 ?store:t.store ()
                in
                (Core.Experiment.run ctx id, false))
          in
          Result.Ok (Protocol.Report_ok text))

let run_ingest t rctx ~format ~trace =
  match Memsim.Trace.Source.format_of_string format with
  | Result.Error msg -> Result.Error (Protocol.Bad_request, msg)
  | Result.Ok fmt -> (
      (* The identity pass runs up front, so a malformed capture is a
         typed Bad_request, not an Internal from inside the
         single-flight; it keeps only the frame's bytes, which a cold
         ingest decodes a second time into the consumers. *)
      match
        Rctx.stage rctx "parse" (fun () ->
            Core.Runs.capture ~format:fmt ~data:trace)
      with
      | exception Failure msg -> Result.Error (Protocol.Bad_request, msg)
      | capture ->
          (* An external cell has no workload to scale. *)
          resolve_cell t rctx
            ~digest:(Core.Runs.capture_digest capture)
            ~scale:1. (fun runs -> Core.Runs.ingest_capture runs capture))

let execute t rctx (req : Protocol.request) : Protocol.response =
  match
    match req with
    | Protocol.Health ->
        Result.Ok
          (Protocol.Health_ok
             { server_version; protocol_version = Protocol.version })
    | Protocol.Run_cell { program; allocator; scale } ->
        run_cell t rctx ~program ~allocator ~scale
    | Protocol.Run_experiment { id; scale } -> run_experiment t rctx ~id ~scale
    | Protocol.Ingest { format; trace } -> run_ingest t rctx ~format ~trace
  with
  | Result.Ok resp -> resp
  | Result.Error (code, message) -> Protocol.Error { code; message }
  | exception e ->
      Log.err (fun m ->
          m "request %s failed: %s" (Protocol.request_kind req)
            (Printexc.to_string e));
      Protocol.Error
        { code = Protocol.Internal; message = Printexc.to_string e }

(* ---- the binary protocol -------------------------------------------- *)

(* Account for, encode and write one reply, then seal its context into
   the histograms and the access log.  [false] when the write failed:
   the peer is gone and the connection ends. *)
let reply t conn rctx ~kind resp =
  Metrics.Counter.inc (Metrics.Counter.labels m_requests [ kind ]);
  (match resp with
  | Protocol.Error { code; _ } ->
      let code = Protocol.error_code_to_string code in
      Rctx.set_outcome rctx code;
      Atomic.incr t.errors;
      Metrics.Counter.inc (Metrics.Counter.labels m_errors [ code ])
  | _ -> Rctx.set_outcome rctx "ok");
  Atomic.incr t.requests;
  (* Every reply echoes the id the request was adopted (or minted)
     under. *)
  let payload =
    Rctx.stage rctx "encode" (fun () ->
        Protocol.encode_response ~id:(Rctx.id rctx) resp)
  in
  Rctx.add_bytes_out rctx (String.length payload + frame_overhead);
  let sent =
    match
      Rctx.stage rctx "write_reply" (fun () ->
          Protocol.write_frame conn.fd payload)
    with
    | () -> true
    | exception (Unix.Unix_error _ | Sys_error _) -> false
  in
  let fin = Rctx.finish rctx in
  Metrics.Histogram.observe h_duration (int_of_float fin.Rctx.total_us);
  List.iter observe_stage fin.Rctx.stages;
  access_log_write t fin;
  sent

(* Read a frame, decode it, execute it, write the reply, read the next:
   one request in flight per connection, answered in arrival order.  A
   pipelining client is held back by the kernel socket buffers. *)
let serve_binary t conn ~first =
  let refuse ~r0 ~r1 code message =
    let rctx = Rctx.create ~kind:"refused" ~peer:conn.peer () in
    Rctx.record_stage rctx "read_frame" ~start_us:r0 ~dur_us:(r1 -. r0);
    reply t conn rctx ~kind:"refused" (Protocol.Error { code; message })
  in
  let rec go first =
    let r0 = Telemetry.Span.now_us () in
    match Protocol.read_frame ~first conn.fd with
    | Result.Ok None -> () (* clean EOF *)
    | Result.Error reason ->
        (* A torn or garbage frame leaves the stream unsynchronised:
           answer with a typed error, then stop reading. *)
        ignore
          (refuse ~r0 ~r1:(Telemetry.Span.now_us ()) Protocol.Bad_request
             reason)
    | Result.Ok (Some payload) -> (
        let r1 = Telemetry.Span.now_us () in
        let decoded =
          Protocol.decode_request ~off:payload.off ~len:payload.len
            payload.frame
        in
        let r2 = Telemetry.Span.now_us () in
        match decoded with
        | Result.Error (Protocol.Unsupported v) ->
            (* The frame was sound — only the payload version is
               foreign — so the stream is still synchronised and the
               connection survives. *)
            if
              refuse ~r0 ~r1 Protocol.Unsupported_version
                (Printf.sprintf "this server speaks protocol version %d, not %d"
                   Protocol.version v)
            then go ""
        | Result.Error (Protocol.Malformed msg) ->
            if refuse ~r0 ~r1 Protocol.Bad_request msg then go ""
        | Result.Ok (req, id) ->
            let kind = Protocol.request_kind req in
            let rctx = Rctx.create ~id ~kind ~peer:conn.peer () in
            Rctx.record_stage rctx "read_frame" ~start_us:r0 ~dur_us:(r1 -. r0);
            Rctx.record_stage rctx "decode" ~start_us:r1 ~dur_us:(r2 -. r1);
            Rctx.add_bytes_in rctx (payload.len + frame_overhead);
            if Atomic.get t.stopping then
              (* and stop: the drain finishes accepted work only *)
              ignore
                (reply t conn rctx ~kind:"refused"
                   (Protocol.Error
                      { code = Protocol.Overloaded;
                        message = "server is shutting down" }))
            else begin
              Atomic.incr t.inflight;
              let resp = execute t rctx req in
              Atomic.decr t.inflight;
              if reply t conn rctx ~kind resp then go ""
            end)
  in
  go first

(* ---- plain-HTTP observability --------------------------------------- *)

(* GET /metrics, /health and /status answer plain HTTP on the same
   port, so a Prometheus scraper, `loclab top` or a shell
   `curl --unix-socket` needs no custom client.  Everything else about
   the connection stays the binary protocol. *)
let http_response ?(content_type = "text/plain; version=0.0.4") status body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\n\
     Content-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let contains_blank_line s =
  let n = String.length s in
  let rec go i =
    i + 3 < n
    && ((s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
         && s.[i + 3] = '\n')
        || go (i + 1))
  in
  go 0

(* The live-introspection document behind GET /status: everything a
   dashboard needs in one scrape — the server's counters (requests by
   kind read off [loclab_serve_requests_total]) plus the request-scoped
   state (per-stage quantiles, slowest requests, open
   connections, in-flight single-flight keys).  The counters are read
   before the single-flight table, and a simulated cell is counted only
   after its flight has left the table, so a body listing a digest
   counts none of that digest's simulations. *)
let status_json t =
  let int a = Export.Int (Atomic.get a) in
  let requests =
    Export.Obj
      [ ("total", int t.requests);
        ("errors", int t.errors);
        ("warm_cells", int t.warm);
        ("simulated_cells", int t.simulated);
        ("inflight", int t.inflight);
        ( "kinds",
          Export.Obj
            (List.map
               (fun (labels, n) -> (String.concat "," labels, Export.Int n))
               (Metrics.Counter.values m_requests)) ) ]
  in
  let open_conns = int t.open_conns in
  let q h p = Metrics.Histogram.quantile h p in
  let stages =
    List.filter_map
      (fun (name, h) ->
        let count = Metrics.Histogram.count h in
        if count = 0 then None
        else
          Some
            (Export.Obj
               [ ("stage", Export.String name);
                 ("count", Export.Int count);
                 ("p50_us", Export.Float (q h 0.50));
                 ("p99_us", Export.Float (q h 0.99)) ]))
      h_stages
  in
  let peers =
    Mutex.lock t.conns_mu;
    let conns = t.conns in
    Mutex.unlock t.conns_mu;
    List.rev_map
      (fun (c, _) ->
        Export.Obj
          [ ("cid", Export.Int c.cid); ("peer", Export.String c.peer) ])
      conns
  in
  let single_flight =
    Mutex.lock t.sf_mu;
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.sf [] in
    Mutex.unlock t.sf_mu;
    List.map (fun k -> Export.String k) keys
  in
  let slow =
    List.map (fun fin -> Rctx.to_json fin) (Rctx.Slow.snapshot ())
  in
  let access =
    match t.access with
    | None -> Export.Null
    | Some _ ->
        Export.Obj
          [ ("written", Export.Int (Metrics.Counter.value c_access_written));
            ( "write_errors",
              Export.Int (Metrics.Counter.value c_access_write_error) ) ]
  in
  Export.to_string
    (Export.Obj
       [ ( "server",
           Export.Obj
             [ ("version", Export.String server_version);
               ("protocol", Export.Int Protocol.version);
               ( "artifact_schema",
                 Export.Int Core.Artifact.schema_version );
               ("started", Export.String (Rctx.iso8601 t.started));
               ( "uptime_seconds",
                 Export.Float (Unix.gettimeofday () -. t.started) ) ] );
         ("requests", requests);
         ( "latency_us",
           Export.Obj
             [ ("count", Export.Int (Metrics.Histogram.count h_duration));
               ("mean", Export.Float (Metrics.Histogram.mean h_duration));
               ("p50", Export.Float (q h_duration 0.50));
               ("p90", Export.Float (q h_duration 0.90));
               ("p99", Export.Float (q h_duration 0.99)) ] );
         ("stages", Export.List stages);
         ( "connections",
           Export.Obj
             [ ("open", open_conns);
               ("peers", Export.List peers) ] );
         ("single_flight", Export.List single_flight);
         ("slow_requests", Export.List slow);
         ( "spans",
           Export.Obj
             [ ("recorded", Export.Int (Telemetry.Span.recorded ()));
               ("dropped", Export.Int (Telemetry.Span.dropped ())) ] );
         ("access_log", access) ])

let serve_http t conn ~first =
  (* Drain the request head (bounded) so the client sees our response
     rather than a reset, then answer by method and path. *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf first;
  let chunk = Bytes.create 1024 in
  let rec drain () =
    if Buffer.length buf < 8192 && not (contains_blank_line (Buffer.contents buf))
    then
      match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  let head = Buffer.contents buf in
  let request_line =
    match String.index_opt head '\r' with
    | Some i -> String.sub head 0 i
    | None -> head
  in
  let meth, path =
    match String.split_on_char ' ' request_line with
    | meth :: path :: _ when path <> "" -> (meth, path)
    | _ -> ("", "")
  in
  let rctx = Rctx.create ~kind:"http" ~peer:conn.peer () in
  Rctx.add_bytes_in rctx (String.length head);
  Rctx.set_cell rctx (if path = "" then request_line else path);
  let status, resp =
    if path = "" then
      ("400", http_response "400 Bad Request" "malformed request line\n")
    else if meth <> "GET" then
      ( "405",
        http_response "405 Method Not Allowed"
          (Printf.sprintf "method %s not allowed (GET only)\n" meth) )
    else
      match path with
      | "/metrics" -> ("200", http_response "200 OK" (prometheus_text ()))
      | "/health" -> ("200", http_response "200 OK" "ok\n")
      | "/status" ->
          ( "200",
            http_response ~content_type:"application/json" "200 OK"
              (status_json t ^ "\n") )
      | _ ->
          ( "404",
            http_response "404 Not Found"
              "only /metrics, /health and /status live here\n" )
  in
  Metrics.Counter.inc (Metrics.Counter.labels m_requests [ "http" ]);
  Atomic.incr t.requests;
  Rctx.set_outcome rctx status;
  Rctx.add_bytes_out rctx (String.length resp);
  (try Rctx.stage rctx "write_reply" (fun () ->
           Protocol.write_all conn.fd resp 0 (String.length resp))
   with Unix.Unix_error _ -> ());
  access_log_write t (Rctx.finish rctx)

(* ---- connection lifecycle ------------------------------------------- *)

(* Each connection is one thread that sniffs the first bytes: an HTTP
   method prefix means plain HTTP (answered, then close); anything else
   is treated as the binary protocol. *)
let sniff_bytes = 4

(* The 4-byte prefixes of the HTTP methods worth answering (GET with a
   response, the rest with a 405); none collides with the binary magic
   "LOCS...". *)
let http_prefixes =
  [ "GET "; "HEAD"; "POST"; "PUT "; "DELE"; "OPTI"; "PATC" ]

let peer_string fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | exception Unix.Unix_error _ -> "unknown"

let conn_main t conn =
  let finally () =
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Atomic.decr t.open_conns;
    Metrics.Gauge.add g_connections (-1);
    Mutex.lock t.conns_mu;
    t.conns <- List.filter (fun (c, _) -> c.cid <> conn.cid) t.conns;
    Mutex.unlock t.conns_mu
  in
  Fun.protect ~finally (fun () ->
      let first = Bytes.create sniff_bytes in
      let rec sniff off =
        if off >= sniff_bytes then Some (Bytes.to_string first)
        else
          match Unix.read conn.fd first off (sniff_bytes - off) with
          | 0 -> if off = 0 then None else Some (Bytes.sub_string first 0 off)
          | n -> sniff (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> sniff off
      in
      try
        match sniff 0 with
        | None -> () (* connected and left *)
        | Some first when List.mem first http_prefixes ->
            serve_http t conn ~first
        | Some first -> serve_binary t conn ~first
      with Unix.Unix_error _ ->
        (* A read failed — typically ECONNRESET from a peer that closed
           with a reply unread: the connection is over. *)
        ())

let accept_conn t fd =
  Atomic.incr t.open_conns;
  Metrics.Gauge.add g_connections 1;
  Mutex.lock t.conns_mu;
  let conn = { cid = t.next_cid; fd; peer = peer_string fd } in
  t.next_cid <- conn.cid + 1;
  let thread = Thread.create (fun () -> conn_main t conn) () in
  t.conns <- (conn, thread) :: t.conns;
  Mutex.unlock t.conns_mu

(* ---- accept loop, shutdown ------------------------------------------ *)

let shutdown t =
  (* Callable from a signal handler: one atomic flip, no locks.  The
     accept loop polls the flag (and EINTR from the signal itself cuts
     its select short), notices, and performs the actual teardown. *)
  Atomic.set t.stopping true

let drain_and_close t =
  (* Stop reading on every open connection: a thread blocked in a read
     sees EOF, a thread executing a request writes its reply and then
     sees EOF — accepted work completes, nothing new enters. *)
  Mutex.lock t.conns_mu;
  let conns = t.conns in
  Mutex.unlock t.conns_mu;
  List.iter
    (fun (conn, _) ->
      try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun (_, thread) -> Thread.join thread) conns;
  Exec.Pool.shutdown t.pool;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.access with
  | Some a when a.aclose -> ( try close_out a.ach with Sys_error _ -> ())
  | Some a -> ( try flush a.ach with Sys_error _ -> ())
  | None -> ());
  match t.sock_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ()

let run t =
  Log.info (fun m ->
      m "serving on %s (%d worker domain%s)"
        (Protocol.addr_to_string t.listen_addr)
        (Exec.Pool.jobs t.pool)
        (if Exec.Pool.jobs t.pool = 1 then "" else "s"));
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ -> accept_conn t fd
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN
                 | Unix.EWOULDBLOCK), _, _) ->
              ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  Log.info (fun m -> m "shutting down: draining open connections");
  drain_and_close t;
  Log.info (fun m ->
      m "served %d request%s (%d warm, %d simulated, %d error%s)"
        (Atomic.get t.requests)
        (if Atomic.get t.requests = 1 then "" else "s")
        (Atomic.get t.warm) (Atomic.get t.simulated) (Atomic.get t.errors)
        (if Atomic.get t.errors = 1 then "" else "s"))
