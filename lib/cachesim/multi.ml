(* A set of cache configurations fed from one trace, partitioned by
   block size into {!Forest} families: within a family the
   direct-mapped members cost one inclusion walk per reference,
   set-associative members are probed individually, and the access
   profile and cold-miss table are shared family-wide.  One walk over
   each batch feeds the families in ascending block size
   ({!Forest.sink_families}), so an event is decoded once for the whole
   sweep.  Per-configuration statistics are bit-identical to simulating
   every configuration independently. *)

type t = {
  slots : (Config.t * int * int) array;
      (* creation order: config, family index, member index in it *)
  forests : Forest.t array;  (* ascending block size *)
}

let create configs =
  if configs = [] then invalid_arg "Cachesim.Multi.create: no configurations";
  let blocks =
    Array.of_list
      (List.sort_uniq Int.compare
         (List.map (fun (c : Config.t) -> c.block_bytes) configs))
  in
  let family bb = List.filter (fun (c : Config.t) -> c.block_bytes = bb) configs in
  let forests = Array.map (fun bb -> Forest.create (family bb)) blocks in
  (* A member's index is its rank among its family's configurations. *)
  let rank = Array.make (Array.length blocks) 0 in
  let slot (c : Config.t) =
    let f = Option.get (Array.find_index (( = ) c.block_bytes) blocks) in
    let m = rank.(f) in
    rank.(f) <- m + 1;
    (c, f, m)
  in
  { slots = Array.of_list (List.map slot configs); forests }

let sink t = Forest.sink_families t.forests
let reset t = Array.iter Forest.reset t.forests

let results t =
  Array.to_list t.slots
  |> List.map (fun (c, f, m) -> (c, Forest.member_stats t.forests.(f) m))
