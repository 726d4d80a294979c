(* Request-scoped tracing context.

   One [t] per served request, threaded from the frame read to the
   reply write.  It accumulates a flat, ordered list of timed stages
   (read_frame → decode → … → write_reply) plus the identifying and
   accounting fields the access log and the slow-request table need.

   Concurrency contract: a context is owned by exactly one request's
   execution path.  The connection thread that creates it reads,
   executes and answers the request; a single-flight leader may mutate
   it from the pool worker domain while that thread blocks in [await],
   and the future gives happens-before, so no field needs its own
   lock.  Only [finish] touches shared state (the slow
   ring, under its mutex, and the span ring, under its own).

   Like the rest of the telemetry stack it is disabled by default and
   free when disabled: [stage] runs its thunk directly, [finish]
   returns a skeleton and records nothing. *)

type stage = { sname : string; sstart_us : float; sdur_us : float }

type finished = {
  id : string;
  kind : string;
  peer : string;
  cell : string;
  outcome : string;
  warm : bool option;
  bytes_in : int;
  bytes_out : int;
  wall_start : float;  (* Unix.gettimeofday at creation, seconds *)
  total_us : float;
  stages : stage list;  (* execution order *)
}

type t = {
  rid : string;
  wall : float;
  t0 : float;  (* Span.now_us at creation *)
  rkind : string;
  mutable rpeer : string;
  mutable rcell : string;
  mutable routcome : string;
  mutable rwarm : bool option;
  mutable rbytes_in : int;
  mutable rbytes_out : int;
  mutable rstages : stage list;  (* reverse execution order *)
}

(* ---- enable gate ---------------------------------------------------- *)

let on = ref false
let set_enabled b = on := b
let enabled () = !on

(* ---- request ids ---------------------------------------------------- *)

(* Random 64-bit ids, hex-rendered.  Self-init seeds from the OS; the
   state is shared across connection threads, so guard it. *)
let rng = lazy (Random.State.make_self_init ())
let rng_mu = Mutex.create ()

let fresh_id () =
  Mutex.lock rng_mu;
  let bits = Random.State.bits64 (Lazy.force rng) in
  Mutex.unlock rng_mu;
  Printf.sprintf "%016Lx" bits

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let valid_id s =
  let n = String.length s in
  n >= 1 && n <= 32 && String.for_all is_hex s

let adopt_id = function
  | Some s when valid_id s -> String.lowercase_ascii s
  | Some _ | None -> fresh_id ()

(* ---- lifecycle ------------------------------------------------------ *)

let create ?id ~kind ~peer () =
  { rid = adopt_id id;
    wall = Unix.gettimeofday ();
    t0 = Span.now_us ();
    rkind = kind;
    rpeer = peer;
    rcell = "";
    routcome = "";
    rwarm = None;
    rbytes_in = 0;
    rbytes_out = 0;
    rstages = [] }

let id t = t.rid
let set_cell t cell = t.rcell <- cell
let set_outcome t outcome = t.routcome <- outcome
let set_warm t warm = t.rwarm <- Some warm
let add_bytes_in t n = t.rbytes_in <- t.rbytes_in + n
let add_bytes_out t n = t.rbytes_out <- t.rbytes_out + n

let record_stage t name ~start_us ~dur_us =
  if !on then
    t.rstages <-
      { sname = name; sstart_us = start_us; sdur_us = dur_us } :: t.rstages

let stage t name f =
  if not !on then f ()
  else begin
    let s0 = Span.now_us () in
    match f () with
    | r ->
        record_stage t name ~start_us:s0 ~dur_us:(Span.now_us () -. s0);
        r
    | exception e ->
        record_stage t name ~start_us:s0 ~dur_us:(Span.now_us () -. s0);
        raise e
  end

(* ---- slow-request ring ---------------------------------------------- *)

module Slow = struct
  (* Top-N slowest requests per time window: the current window fills,
     and on rotation becomes the previous window, so a snapshot always
     covers between one and two windows of history — a burst of slow
     requests stays visible for at least [window_us] after it ends,
     and a quiet server doesn't pin stale entries forever. *)

  let capacity = 8
  let window_us = 60e6

  type state = {
    mutable window_start : float;
    mutable current : finished list;  (* sorted slowest-first, <= capacity *)
    mutable previous : finished list;
  }

  let mu = Mutex.create ()

  let st = { window_start = 0.; current = []; previous = [] }

  let reset () =
    Mutex.lock mu;
    st.current <- [];
    st.previous <- [];
    st.window_start <- 0.;
    Mutex.unlock mu

  let insert_sorted fin l =
    let rec go = function
      | [] -> [ fin ]
      | x :: rest when fin.total_us > x.total_us -> fin :: x :: rest
      | x :: rest -> x :: go rest
    in
    go l

  let take n l =
    let rec go n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: go (n - 1) rest
    in
    go n l

  let note fin =
    Mutex.lock mu;
    let now = Span.now_us () in
    if now -. st.window_start > window_us then begin
      st.previous <- st.current;
      st.current <- [];
      st.window_start <- now
    end;
    st.current <- take capacity (insert_sorted fin st.current);
    Mutex.unlock mu

  let snapshot () =
    Mutex.lock mu;
    let merged =
      List.fold_left
        (fun acc fin -> take capacity (insert_sorted fin acc))
        st.current st.previous
    in
    Mutex.unlock mu;
    merged
end

(* ---- finish --------------------------------------------------------- *)

let finish t =
  let total_us = if !on then Span.now_us () -. t.t0 else 0. in
  let fin =
    { id = t.rid;
      kind = t.rkind;
      peer = t.rpeer;
      cell = t.rcell;
      outcome = t.routcome;
      warm = t.rwarm;
      bytes_in = t.rbytes_in;
      bytes_out = t.rbytes_out;
      wall_start = t.wall;
      total_us;
      stages = List.rev t.rstages }
  in
  if !on then begin
    Slow.note fin;
    (* Mirror the request into the span ring when span tracing is also
       on: one root span plus one child per stage, all carrying the
       request id so Perfetto can group them. *)
    if Span.enabled () then begin
      let args = [ ("request_id", fin.id); ("kind", fin.kind) ] in
      List.iter
        (fun s ->
          Span.complete ~args ~cat:"serve.stage" s.sname ~ts:s.sstart_us
            ~dur:s.sdur_us)
        fin.stages;
      Span.complete
        ~args:
          (args
          @ (if fin.cell = "" then [] else [ ("cell", fin.cell) ])
          @ [ ("outcome", fin.outcome) ])
        ~cat:"serve.request" "request" ~ts:t.t0 ~dur:total_us
    end
  end;
  fin

(* ---- access-log rendering ------------------------------------------- *)

let iso8601 secs =
  let tm = Unix.gmtime secs in
  let frac = secs -. Float.of_int (int_of_float secs) in
  let micros = int_of_float (Float.round (frac *. 1e6)) in
  let micros = if micros > 999999 then 999999 else micros in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%06dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec micros

let to_json fin =
  let open Metrics.Export in
  Obj
    [ ("ts", String (iso8601 fin.wall_start));
      ("request_id", String fin.id);
      ("peer", String fin.peer);
      ("kind", String fin.kind);
      ("cell", if fin.cell = "" then Null else String fin.cell);
      ("outcome", String fin.outcome);
      ("total_us", Float fin.total_us);
      ( "stages",
        Obj (List.map (fun s -> (s.sname, Float s.sdur_us)) fin.stages) );
      ("warm", match fin.warm with None -> Null | Some b -> Bool b);
      ("bytes_in", Int fin.bytes_in);
      ("bytes_out", Int fin.bytes_out) ]
