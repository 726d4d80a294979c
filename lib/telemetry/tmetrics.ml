(* Process-wide registry of named, labelled counters, gauges and
   log-bucketed histograms.

   Hot-path updates land in per-domain shards (slot = domain id mod
   [shard_count], each slot an atomic so id collisions stay correct),
   so Exec.Pool workers record without lock contention; a snapshot
   merges the shards.  Every update first reads one [enabled] flag, so
   a disabled registry costs a load and a branch per call site — and
   instrumentation only counts, it never touches the simulated machine,
   so simulation results are bit-identical either way. *)

let shard_count = 16
let shard_index () = (Domain.self () :> int) land (shard_count - 1)

let valid_metric_name n =
  String.length n > 0
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       n

let valid_label_name n =
  String.length n > 0
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       n

(* ---- snapshots ----------------------------------------------------- *)

type histogram_sample = {
  buckets : (float * int) list;
      (* (upper bound, cumulative count); the last bound is [infinity] *)
  sum : int;
  count : int;
}

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of histogram_sample

type sample = { labels : (string * string) list; v : value }

type family_snapshot = {
  fname : string;
  fhelp : string;
  ftype : string;
  samples : sample list;
}

type snapshot = family_snapshot list

(* ---- registry ------------------------------------------------------ *)

type t = {
  mutable on : bool;
  mutex : Mutex.t;
  mutable names : string list;
  mutable collectors : (unit -> family_snapshot) list;  (* newest first *)
}

let create () =
  { on = false; mutex = Mutex.create (); names = []; collectors = [] }

let default = create ()
let set_enabled t b = t.on <- b
let enabled t = t.on

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let register t ~name ~labels collect =
  if not (valid_metric_name name) then
    invalid_arg (Printf.sprintf "Telemetry.Metrics: bad metric name %S" name);
  List.iter
    (fun l ->
      if not (valid_label_name l) then
        invalid_arg
          (Printf.sprintf "Telemetry.Metrics: bad label name %S on %s" l name))
    labels;
  locked t.mutex (fun () ->
      if List.mem name t.names then
        invalid_arg
          (Printf.sprintf "Telemetry.Metrics: duplicate metric %S" name);
      t.names <- name :: t.names;
      t.collectors <- collect :: t.collectors)

let snapshot t =
  let collectors = locked t.mutex (fun () -> List.rev t.collectors) in
  List.map (fun collect -> collect ()) collectors

(* Children are stored newest-first under the registry mutex; [labels]
   is called once per allocator/consumer instance, never on the per-event
   path, so a linear scan is fine. *)
let find_or_add_child reg children label_names vals make =
  if List.length vals <> List.length label_names then
    invalid_arg
      (Printf.sprintf "Telemetry.Metrics: expected %d label values, got %d"
         (List.length label_names) (List.length vals));
  locked reg.mutex (fun () ->
      match List.assoc_opt vals !children with
      | Some h -> h
      | None ->
          let h = make () in
          children := (vals, h) :: !children;
          h)

let child_samples label_names children sample_of =
  List.rev_map
    (fun (vals, h) -> { labels = List.combine label_names vals; v = sample_of h })
    children

(* ---- counters ------------------------------------------------------ *)

module Counter = struct
  type h = { reg : t; cells : int Atomic.t array }

  type family = {
    freg : t;
    label_names : string list;
    children : (string list * h) list ref;
  }

  let merged h = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.cells

  let family ?(registry = default) ~name ~help ?(labels = []) () =
    let fam = { freg = registry; label_names = labels; children = ref [] } in
    register registry ~name ~labels (fun () ->
        { fname = name;
          fhelp = help;
          ftype = "counter";
          samples =
            child_samples labels !(fam.children) (fun h -> Counter_v (merged h))
        });
    fam

  let labels fam vals =
    find_or_add_child fam.freg fam.children fam.label_names vals (fun () ->
        { reg = fam.freg;
          cells = Array.init shard_count (fun _ -> Atomic.make 0) })

  let inc ?(by = 1) h =
    if by < 0 then invalid_arg "Telemetry.Metrics.Counter.inc: by must be >= 0";
    if h.reg.on then
      ignore (Atomic.fetch_and_add h.cells.(shard_index ()) by)

  let value = merged

  let values fam =
    List.rev_map (fun (vals, h) -> (vals, merged h)) !(fam.children)
end

(* ---- gauges -------------------------------------------------------- *)

module Gauge = struct
  (* [set] is last-writer-wins, which does not merge across shards, so a
     gauge is one atomic rather than a sharded cell.  Gauges record
     coarse state (worker counts, file sizes), not per-event traffic. *)
  type h = { reg : t; cell : int Atomic.t }

  type family = {
    freg : t;
    label_names : string list;
    children : (string list * h) list ref;
  }

  let family ?(registry = default) ~name ~help ?(labels = []) () =
    let fam = { freg = registry; label_names = labels; children = ref [] } in
    register registry ~name ~labels (fun () ->
        { fname = name;
          fhelp = help;
          ftype = "gauge";
          samples =
            child_samples labels !(fam.children) (fun h ->
                Gauge_v (Atomic.get h.cell)) });
    fam

  let labels fam vals =
    find_or_add_child fam.freg fam.children fam.label_names vals (fun () ->
        { reg = fam.freg; cell = Atomic.make 0 })

  let set h v = if h.reg.on then Atomic.set h.cell v
  let add h v = if h.reg.on then ignore (Atomic.fetch_and_add h.cell v)
  let value h = Atomic.get h.cell
end

(* ---- histograms ---------------------------------------------------- *)

module Histogram = struct
  (* Log-bucketed: bucket i counts observations in (2^(i-1), 2^i] (the
     first bucket holds everything <= 1); one overflow bucket past
     2^29.  Shard slot layout: buckets 0..30, then sum, then count. *)
  let finite_buckets = 30
  let sum_slot = finite_buckets + 1
  let count_slot = finite_buckets + 2
  let slots = finite_buckets + 3

  let bucket_of v =
    if v <= 1 then 0
    else begin
      let rec go i bound =
        if i = finite_buckets || v <= bound then i else go (i + 1) (bound * 2)
      in
      go 1 2
    end

  let bound_of i = if i = finite_buckets then infinity else float_of_int (1 lsl i)

  type h = { reg : t; shards : int Atomic.t array array }

  type family = {
    freg : t;
    label_names : string list;
    children : (string list * h) list ref;
  }

  let merged_slot h slot =
    Array.fold_left (fun acc s -> acc + Atomic.get s.(slot)) 0 h.shards

  let sample_of h =
    let cumulative = ref 0 in
    let buckets =
      List.init (finite_buckets + 1) (fun i ->
          cumulative := !cumulative + merged_slot h i;
          (bound_of i, !cumulative))
    in
    Histogram_v
      { buckets; sum = merged_slot h sum_slot; count = merged_slot h count_slot }

  let family ?(registry = default) ~name ~help ?(labels = []) () =
    let fam = { freg = registry; label_names = labels; children = ref [] } in
    register registry ~name ~labels (fun () ->
        { fname = name;
          fhelp = help;
          ftype = "histogram";
          samples = child_samples labels !(fam.children) sample_of });
    fam

  let labels fam vals =
    find_or_add_child fam.freg fam.children fam.label_names vals (fun () ->
        { reg = fam.freg;
          shards =
            Array.init shard_count (fun _ ->
                Array.init slots (fun _ -> Atomic.make 0)) })

  let observe h v =
    if h.reg.on then begin
      let v = max 0 v in
      let s = h.shards.(shard_index ()) in
      ignore (Atomic.fetch_and_add s.(bucket_of v) 1);
      ignore (Atomic.fetch_and_add s.(sum_slot) v);
      ignore (Atomic.fetch_and_add s.(count_slot) 1)
    end

  let count h = merged_slot h count_slot
  let sum h = merged_slot h sum_slot

  let mean h =
    let n = count h in
    if n = 0 then 0. else float_of_int (sum h) /. float_of_int n

  let quantile h q =
    let q = Float.max 0. (Float.min 1. q) in
    let n = count h in
    if n = 0 then 0.
    else begin
      (* Rank of the wanted observation, then linear interpolation
         inside the log-2 bucket that holds it — the standard
         Prometheus histogram_quantile estimate, so the stats endpoint
         and a scraping dashboard agree on p50/p99. *)
      let rank = q *. float_of_int n in
      let rec go i cumulative =
        if i > finite_buckets then infinity
        else
          let here = merged_slot h i in
          let cum = cumulative + here in
          if float_of_int cum >= rank && here > 0 then
            let hi = bound_of i in
            if i = 0 then hi
            else if hi = infinity then bound_of (i - 1)
            else
              let lo = bound_of (i - 1) in
              lo
              +. (hi -. lo)
                 *. ((rank -. float_of_int cumulative) /. float_of_int here)
          else go (i + 1) cum
      in
      go 0 0
    end
end

(* ---- exporters ----------------------------------------------------- *)

let escape_help s =
  String.concat "\\n" (String.split_on_char '\n' s)

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fmt_bound bound =
  if bound = infinity then "+Inf" else string_of_int (int_of_float bound)

let fmt_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let to_prometheus snap =
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "# HELP %s %s\n" f.fname (escape_help f.fhelp));
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" f.fname f.ftype);
      List.iter
        (fun s ->
          match s.v with
          | Counter_v v | Gauge_v v ->
              Buffer.add_string b
                (Printf.sprintf "%s%s %d\n" f.fname (fmt_labels s.labels) v)
          | Histogram_v h ->
              List.iter
                (fun (bound, cumulative) ->
                  Buffer.add_string b
                    (Printf.sprintf "%s_bucket%s %d\n" f.fname
                       (fmt_labels (s.labels @ [ ("le", fmt_bound bound) ]))
                       cumulative))
                h.buckets;
              Buffer.add_string b
                (Printf.sprintf "%s_sum%s %d\n" f.fname (fmt_labels s.labels)
                   h.sum);
              Buffer.add_string b
                (Printf.sprintf "%s_count%s %d\n" f.fname (fmt_labels s.labels)
                   h.count))
        f.samples)
    snap;
  Buffer.contents b

let to_json snap =
  let open Metrics.Export in
  let sample_json s =
    let labels = Obj (List.map (fun (k, v) -> (k, String v)) s.labels) in
    match s.v with
    | Counter_v v | Gauge_v v -> Obj [ ("labels", labels); ("value", Int v) ]
    | Histogram_v h ->
        Obj
          [ ("labels", labels);
            ("count", Int h.count);
            ("sum", Int h.sum);
            ( "buckets",
              List
                (List.map
                   (fun (bound, cumulative) ->
                     Obj
                       [ ( "le",
                           if bound = infinity then String "+Inf"
                           else Int (int_of_float bound) );
                         ("count", Int cumulative) ])
                   h.buckets) ) ]
  in
  let family_json f =
    Obj
      [ ("name", String f.fname);
        ("type", String f.ftype);
        ("help", String f.fhelp);
        ("samples", List (List.map sample_json f.samples)) ]
  in
  to_string (Obj [ ("metrics", List (List.map family_json snap)) ])
