(* Read once: the affinity mask is fixed for the life of a run. *)
let limit = Domain.recommended_domain_count ()

(* Live pool workers plus helpers in use, across every domain. *)
let busy = Atomic.make 0
let worker = Domain.DLS.new_key (fun () -> false)

let enlist n = ignore (Atomic.fetch_and_add busy n)
let discharge n = ignore (Atomic.fetch_and_add busy (-n))
let mark_worker () = Domain.DLS.set worker true
let in_use () = Atomic.get busy

let try_take () =
  let self = if Domain.DLS.get worker then 0 else 1 in
  let rec go () =
    let b = Atomic.get busy in
    b + self < limit && (Atomic.compare_and_set busy b (b + 1) || go ())
  in
  go ()
