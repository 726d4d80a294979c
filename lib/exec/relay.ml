module Batch = Memsim.Event.Batch

type path = Relayed | Inline

(* The ring: [slot_count] slots of [slot_events] events (256 KB),
   allocated once per helper and reused by every relay it serves.  A
   slot carries a few hundred microseconds of consumer work, so a
   hand-over (an atomic store, plus a wake-up when the other side
   sleeps) is rare next to it; eight slots let each side run ahead of a
   scheduling hiccup of the other.  On two cores of a 2-vCPU host, a
   0.25-scale gs-large/quickfit cell took about as long with four slots
   of 4096 events, and the 0.002-scale grid slightly longer. *)
let slot_count = 8
let slot_mask = slot_count - 1
let slot_events = 2048

(* How many times a side re-reads the other side's progress before it
   blocks on the condition variable: about 3 us of [Domain.cpu_relax],
   the cost of a futex round trip.  On the same host any limit from 0
   to 20 000 gave the same time on two cores, but when the two sides
   share one core a spinning side burns the time the other needs: the
   cell above took 1.8 s at 20 000 spins, 1.4 s at 2 000 and 1.1-1.3 s
   at 100, against 1.1-1.3 s inline. *)
let spin_limit = 100

(* How long an idle helper waits for its next relay before it retires
   (its domain ends).  An idle domain is not free under OCaml 5.1:
   every minor collection of every domain stops the world, and a domain
   blocked outside OCaml joins through its backup thread, which has to
   be woken.  On a 2-vCPU host one idle domain added ~135 us to each
   minor collection of a busy one, and a helper left idle after a
   set-up that relayed slowed report-warm's and serve-mixed's timed
   passes by ~6 %.  A respawn costs 0.4-1 ms, so a helper outlives the
   gaps between the relays of one grid fill and retires once relays
   stop. *)
let idle_retire_s = 0.2

(* A helper only reads slots and calls the relayed consumers, so its
   default 256K-word minor heap would only ever be touched, page by
   page, over the life of the process. *)
let helper_minor_heap_words = 8192

let relays_f =
  Telemetry.Metrics.Counter.family ~name:"loclab_relay_total"
    ~help:"Consumer relays, by whether a helper domain ran the consumers"
    ~labels:[ "path" ] ()

let relayed_c = Telemetry.Metrics.Counter.labels relays_f [ "relayed" ]
let inline_c = Telemetry.Metrics.Counter.labels relays_f [ "inline" ]

type helper = {
  ring : Batch.t array;
  published : int Atomic.t;  (** Slots the producer has filled. *)
  consumed : int Atomic.t;  (** Slots the consumer has delivered. *)
  closed : bool Atomic.t;  (** The producer will publish no more. *)
  failed : bool Atomic.t;  (** [error] holds the consumer's exception. *)
  sleepers : int Atomic.t;  (** Sides blocked, or about to, on [cond]. *)
  mu : Mutex.t;
  cond : Condition.t;
  wake_r : Unix.file_descr;  (** A byte here: [job] may have been set. *)
  wake_w : Unix.file_descr;
  mutable fill : int;  (** Producer side: events in the slot being filled. *)
  mutable job : (unit -> unit) option;
  mutable finished : bool;
  mutable error : (exn * Printexc.raw_backtrace) option;
}

(* ---- waiting: spin, then block --------------------------------------- *)

(* A side that blocks registers in [sleepers] under [mu] before its last
   check of the condition; the other side publishes its progress first
   and reads [sleepers] after, so one of the two sees the other. *)
let wake h =
  if Atomic.get h.sleepers > 0 then begin
    Mutex.lock h.mu;
    Condition.broadcast h.cond;
    Mutex.unlock h.mu
  end

(* Slot [p] may be filled once the consumer is done with slot
   [p - slot_count]. *)
let slot_free h p = p - Atomic.get h.consumed < slot_count
let data_ready h c = Atomic.get h.published > c || Atomic.get h.closed

let await_free h p =
  let n = ref spin_limit in
  while (not (slot_free h p)) && !n > 0 do
    Domain.cpu_relax ();
    decr n
  done;
  if not (slot_free h p) then begin
    Mutex.lock h.mu;
    Atomic.incr h.sleepers;
    while not (slot_free h p) do
      Condition.wait h.cond h.mu
    done;
    Atomic.decr h.sleepers;
    Mutex.unlock h.mu
  end

let await_data h c =
  let n = ref spin_limit in
  while (not (data_ready h c)) && !n > 0 do
    Domain.cpu_relax ();
    decr n
  done;
  if not (data_ready h c) then begin
    Mutex.lock h.mu;
    Atomic.incr h.sleepers;
    while not (data_ready h c) do
      Condition.wait h.cond h.mu
    done;
    Atomic.decr h.sleepers;
    Mutex.unlock h.mu
  end

(* ---- the producer: the caller's sink --------------------------------- *)

let publish h =
  let p = Atomic.get h.published in
  (Array.unsafe_get h.ring (p land slot_mask)).Batch.len <- h.fill;
  h.fill <- 0;
  Atomic.set h.published (p + 1);
  wake h

let reraise h =
  match h.error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* Copies [b] into the ring.  The slots live in the major heap, where
   [Array.blit] would store each int through [caml_modify]; a typed loop
   stores them directly. *)
let push h (b : Batch.t) =
  if Atomic.get h.failed then reraise h;
  let len = b.Batch.len and src_a = b.Batch.addrs and src_m = b.Batch.metas in
  let off = ref 0 in
  while !off < len do
    let p = Atomic.get h.published in
    if h.fill = 0 then await_free h p;
    let slot = Array.unsafe_get h.ring (p land slot_mask) in
    let dst_a = slot.Batch.addrs and dst_m = slot.Batch.metas in
    let fill = h.fill and o = !off in
    let n = Int.min (slot_events - fill) (len - o) in
    for i = 0 to n - 1 do
      Array.unsafe_set dst_a (fill + i) (Array.unsafe_get src_a (o + i));
      Array.unsafe_set dst_m (fill + i) (Array.unsafe_get src_m (o + i))
    done;
    h.fill <- fill + n;
    off := o + n;
    if h.fill = slot_events then publish h
  done

(* ---- the consumer: the helper's side of a relay ----------------------- *)

(* Delivers every published slot to [remote], in order, until the
   producer closes.  After [remote] raises, slots are still taken (and
   dropped) so the producer never waits on a consumer that is gone. *)
let drain h remote =
  let c = ref 0 and fin = ref false in
  while not !fin do
    if not (data_ready h !c) then await_data h !c;
    if Atomic.get h.published > !c then begin
      if not (Atomic.get h.failed) then begin
        try remote (Array.unsafe_get h.ring (!c land slot_mask))
        with e ->
          h.error <- Some (e, Printexc.get_raw_backtrace ());
          Atomic.set h.failed true
      end;
      incr c;
      Atomic.set h.consumed !c;
      wake h
    end
    else fin := true
  done

(* ---- helper domains --------------------------------------------------- *)

let idle_mu = Mutex.create ()
let idle = ref []

(* Called by a helper whose wait timed out: it retires only if no caller
   has taken it off the idle list meanwhile (a taken one has a job on
   the way). *)
let retire h =
  Mutex.lock idle_mu;
  let unclaimed = List.memq h !idle in
  if unclaimed then idle := List.filter (fun x -> x != h) !idle;
  Mutex.unlock idle_mu;
  unclaimed

(* An idle helper blocks in [select] on its wake pipe, which, unlike a
   condition variable, can time out.  A pipe numbered beyond [select]'s
   range (a process with over a thousand descriptors open) is waited on
   without a deadline. *)
let rec next_job h =
  Mutex.lock h.mu;
  let job = h.job in
  Mutex.unlock h.mu;
  let wait () =
    (try ignore (Unix.read h.wake_r (Bytes.create 1) 0 1)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    next_job h
  in
  match job with
  | Some _ -> job
  | None -> (
      match Unix.select [ h.wake_r ] [] [] idle_retire_s with
      | [], _, _ -> if retire h then None else next_job h
      | _ -> wait ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_job h
      | exception Unix.Unix_error _ -> wait ())

let rec serve h =
  match next_job h with
  | None ->
      Unix.close h.wake_r;
      Unix.close h.wake_w
  | Some job ->
      (try job () with e -> h.error <- Some (e, Printexc.get_raw_backtrace ()));
      Mutex.lock h.mu;
      h.job <- None;
      h.finished <- true;
      Condition.broadcast h.cond;
      Mutex.unlock h.mu;
      serve h

let spawn () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let h =
    { ring =
        Array.init slot_count (fun _ -> Batch.create ~capacity:slot_events ());
      published = Atomic.make 0;
      consumed = Atomic.make 0;
      closed = Atomic.make false;
      failed = Atomic.make false;
      sleepers = Atomic.make 0;
      mu = Mutex.create ();
      cond = Condition.create ();
      wake_r;
      wake_w;
      fill = 0;
      job = None;
      finished = false;
      error = None }
  in
  (* Never joined: a helper ends on its own once it retires. *)
  match
    Domain.spawn (fun () ->
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = helper_minor_heap_words };
        serve h)
  with
  | _ -> h
  | exception e ->
      Unix.close wake_r;
      Unix.close wake_w;
      raise e

let forced = Domain.DLS.new_key (fun () -> None)

let with_path p f =
  let prev = Domain.DLS.get forced in
  Domain.DLS.set forced (Some p);
  Fun.protect ~finally:(fun () -> Domain.DLS.set forced prev) f

(* A helper for the calling domain, or [None] to run inline. *)
let acquire () =
  let counted =
    match Domain.DLS.get forced with
    | Some Inline -> false
    | Some Relayed ->
        Cores.enlist 1;
        true
    | None -> Cores.try_take ()
  in
  if not counted then None
  else begin
    Mutex.lock idle_mu;
    let reused =
      match !idle with
      | h :: rest ->
          idle := rest;
          Some h
      | [] -> None
    in
    Mutex.unlock idle_mu;
    match reused with
    | Some _ -> reused
    | None -> (
        (* Out of domain slots: run inline, as on a busy host. *)
        match spawn () with
        | h -> Some h
        | exception _ ->
            Cores.discharge 1;
            None)
  end

let release h =
  Mutex.lock idle_mu;
  idle := h :: !idle;
  Mutex.unlock idle_mu;
  Cores.discharge 1

(* Hands [job] to [h] and returns at once. *)
let start h job =
  Mutex.lock h.mu;
  h.error <- None;
  h.finished <- false;
  h.job <- Some job;
  Mutex.unlock h.mu;
  ignore (Unix.write_substring h.wake_w "!" 0 1)

(* Waits for [h]'s job, releases [h], and returns the job's failure. *)
let finish h =
  Mutex.lock h.mu;
  while not h.finished do
    Condition.wait h.cond h.mu
  done;
  Mutex.unlock h.mu;
  let error = h.error in
  release h;
  error

let with_sink remote f =
  match acquire () with
  | None ->
      Telemetry.Metrics.Counter.inc inline_c;
      f remote
  | Some h -> (
      Telemetry.Metrics.Counter.inc relayed_c;
      Atomic.set h.published 0;
      Atomic.set h.consumed 0;
      Atomic.set h.closed false;
      Atomic.set h.failed false;
      h.fill <- 0;
      start h (fun () -> drain h remote);
      let outcome =
        match f (push h) with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      if h.fill > 0 then publish h;
      Atomic.set h.closed true;
      wake h;
      match (finish h, outcome) with
      | Some (e, bt), _ | None, Error (e, bt) ->
          Printexc.raise_with_backtrace e bt
      | None, Ok v -> v)
