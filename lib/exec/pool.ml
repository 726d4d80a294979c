(* OCaml 5 caps live domains at 128 including the main one; stay well
   under so pools compose with whatever the host process already runs. *)
let max_jobs = 64

let clamp_jobs jobs = max 1 (min max_jobs jobs)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;  (** queue non-empty, or [stopping]. *)
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

let tasks_c =
  Telemetry.Metrics.Counter.family ~name:"loclab_pool_tasks_total"
    ~help:"Tasks executed by pool worker domains" ~labels:[] ()
  |> Fun.flip Telemetry.Metrics.Counter.labels []

let task_us_h =
  Telemetry.Metrics.Histogram.family ~name:"loclab_pool_task_duration_us"
    ~help:"Wall-clock microseconds per pool task" ~labels:[] ()
  |> Fun.flip Telemetry.Metrics.Histogram.labels []

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.work_ready t.mutex
  done;
  match Queue.take_opt t.queue with
  | None ->
      (* stopping and drained *)
      Mutex.unlock t.mutex
  | Some task ->
      Mutex.unlock t.mutex;
      let t0 = Telemetry.Span.now_us () in
      (* Tasks never raise: map wraps the user function in a result. *)
      Telemetry.Span.with_span ~cat:"pool" "task" task;
      Telemetry.Metrics.Counter.inc tasks_c;
      Telemetry.Metrics.Histogram.observe task_us_h
        (int_of_float (Telemetry.Span.now_us () -. t0));
      worker_loop t

let create ~jobs =
  let jobs = clamp_jobs jobs in
  let t =
    { jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [] }
  in
  if jobs > 1 then begin
    (* If the runtime runs out of domain slots partway, keep the
       workers we did get: fewer workers degrade throughput, never
       results (and with zero workers map falls back to List.map). *)
    let workers = ref [] in
    (try
       for _ = 1 to jobs do
         workers :=
           Domain.spawn (fun () ->
               Cores.mark_worker ();
               worker_loop t)
           :: !workers;
         Cores.enlist 1
       done
     with _ -> ());
    t.workers <- !workers
  end;
  t

(* [Domain.join] never returns EINTR itself, but a signal arriving while
   the caller drains (the serve SIGINT path) can surface as EINTR from
   the underlying futex/condvar wait on some runtimes; retrying keeps a
   second Ctrl-C during drain from turning shutdown into a crash. *)
let rec join_retry d =
  try Domain.join d with Unix.Unix_error (Unix.EINTR, _, _) -> join_retry d

let shutdown t =
  (* Take the worker list under the mutex so concurrent [shutdown]s
     (e.g. a signal handler racing the normal exit path) join disjoint
     sets: the second caller sees [] and returns immediately instead of
     joining an already-joined domain. *)
  Mutex.lock t.mutex;
  t.stopping <- true;
  let workers = t.workers in
  t.workers <- [];
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter join_retry workers;
  Cores.discharge (List.length workers)

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One slot per input element; [Error] keeps the backtrace so the
   re-raise on the calling domain looks like the original failure. *)
type 'b slot =
  | Pending
  | Ok of 'b
  | Failed of exn * Printexc.raw_backtrace

let map t f xs =
  if t.stopping then invalid_arg "Exec.Pool.map: pool is shut down";
  if t.jobs = 1 || t.workers = [] then List.map f xs
  else
    match xs with
    | [] -> []
    | _ ->
        let inputs = Array.of_list xs in
        let n = Array.length inputs in
        let results = Array.make n Pending in
        let remaining = ref n in
        let batch_done = Condition.create () in
        Mutex.lock t.mutex;
        if t.stopping then begin
          Mutex.unlock t.mutex;
          invalid_arg "Exec.Pool.map: pool is shut down"
        end;
        Array.iteri
          (fun i x ->
            Queue.add
              (fun () ->
                let r =
                  match f x with
                  | v -> Ok v
                  | exception e -> Failed (e, Printexc.get_raw_backtrace ())
                in
                Mutex.lock t.mutex;
                results.(i) <- r;
                decr remaining;
                if !remaining = 0 then Condition.broadcast batch_done;
                Mutex.unlock t.mutex)
              t.queue)
          inputs;
        Condition.broadcast t.work_ready;
        while !remaining > 0 do
          Condition.wait batch_done t.mutex
        done;
        Mutex.unlock t.mutex;
        (* Submission order: the first failure by input index wins, as
           it would under List.map. *)
        Array.to_list
          (Array.map
             (function
               | Ok v -> v
               | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
               | Pending -> assert false)
             results)

(* ---- one-shot futures (the serve request path) --------------------- *)

type 'a state =
  | Running
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

type 'a future = {
  fmutex : Mutex.t;
  fdone : Condition.t;
  mutable state : 'a state;
}

let async t f =
  let fut = { fmutex = Mutex.create (); fdone = Condition.create (); state = Running } in
  let task () =
    let r =
      match f () with
      | v -> Done v
      | exception e -> Raised (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fut.fmutex;
    fut.state <- r;
    Condition.broadcast fut.fdone;
    Mutex.unlock fut.fmutex
  in
  Mutex.lock t.mutex;
  if t.stopping || t.workers = [] then begin
    (* No workers (jobs = 1, or shutting down): run on the caller, like
       [map]'s sequential degradation.  Run it outside the pool lock. *)
    Mutex.unlock t.mutex;
    task ()
  end
  else begin
    Queue.add task t.queue;
    Condition.signal t.work_ready;
    Mutex.unlock t.mutex
  end;
  fut

let await fut =
  Mutex.lock fut.fmutex;
  while (match fut.state with Running -> true | Done _ | Raised _ -> false) do
    Condition.wait fut.fdone fut.fmutex
  done;
  let r = fut.state in
  Mutex.unlock fut.fmutex;
  match r with
  | Done v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
  | Running -> assert false

let recommended_jobs () = clamp_jobs (Domain.recommended_domain_count ())
