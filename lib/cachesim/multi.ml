(* A set of cache configurations fed from one trace.  LRU
   configurations are partitioned by block size into {!Forest}
   families: within a family the direct-mapped members cost one
   inclusion walk per reference, set-associative members are probed
   individually, and the access profile and cold-miss table are shared
   family-wide.  Non-LRU configurations fall outside the inclusion
   property the forest relies on, so each one is simulated by its own
   {!Cache} fed the same stream.  Per-configuration statistics are
   bit-identical to simulating every configuration independently. *)

type slot =
  | In_forest of int * int  (* forest index, member index within it *)
  | Standalone of int  (* index into [singles] *)

type t = {
  slots : (Config.t * slot) array;  (* creation order *)
  forests : Forest.t array;
  singles : Cache.t array;  (* non-LRU fallbacks *)
}

let create configs =
  if configs = [] then invalid_arg "Cachesim.Multi.create: no configurations";
  (* One family per block size, in first-seen order. *)
  let families : (int, Config.t list ref) Hashtbl.t = Hashtbl.create 4 in
  let family_order = ref [] in
  let singles_rev = ref [] in
  let num_singles = ref 0 in
  let slots_rev = ref [] in
  List.iter
    (fun (c : Config.t) ->
      if Policy.is_lru c.policy then begin
        let members =
          match Hashtbl.find_opt families c.block_bytes with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.add families c.block_bytes r;
              family_order := c.block_bytes :: !family_order;
              r
        in
        members := c :: !members;
        slots_rev :=
          (c, `Forest (c.block_bytes, List.length !members - 1)) :: !slots_rev
      end
      else begin
        singles_rev := Cache.create c :: !singles_rev;
        slots_rev := (c, `Single !num_singles) :: !slots_rev;
        incr num_singles
      end)
    configs;
  let family_order = List.rev !family_order in
  let forests =
    Array.of_list
      (List.map
         (fun bb -> Forest.create (List.rev !(Hashtbl.find families bb)))
         family_order)
  in
  let forest_index =
    let tbl = Hashtbl.create 4 in
    List.iteri (fun i bb -> Hashtbl.add tbl bb i) family_order;
    tbl
  in
  let slots =
    Array.of_list
      (List.rev_map
         (fun (c, where) ->
           match where with
           | `Forest (bb, member) ->
               (c, In_forest (Hashtbl.find forest_index bb, member))
           | `Single i -> (c, Standalone i))
         !slots_rev)
  in
  { slots; forests; singles = Array.of_list (List.rev !singles_rev) }

(* ks/addr/size come straight from the two packed ints, shared across
   every family and single. *)
let sink t (b : Memsim.Event.Batch.t) =
  let forests = t.forests and singles = t.singles in
  let addrs = b.Memsim.Event.Batch.addrs
  and metas = b.Memsim.Event.Batch.metas in
  for i = 0 to b.Memsim.Event.Batch.len - 1 do
    let meta = Array.unsafe_get metas i in
    let addr = Array.unsafe_get addrs i in
    let ks = Memsim.Event.Packed.ks meta in
    let size = meta lsr 3 in
    for j = 0 to Array.length forests - 1 do
      Forest.access_range_ks (Array.unsafe_get forests j) ~ks ~addr ~size
    done;
    for j = 0 to Array.length singles - 1 do
      Cache.access_packed (Array.unsafe_get singles j) ~addr ~meta
    done
  done

let stats_of t = function
  | In_forest (f, m) -> Forest.member_stats t.forests.(f) m
  | Standalone i -> Cache.stats t.singles.(i)

let results t =
  Array.to_list t.slots |> List.map (fun (c, slot) -> (c, stats_of t slot))

let names t =
  Array.to_list t.slots |> List.map (fun ((c : Config.t), _) -> c.name)

let find t ~name =
  match
    Array.find_opt (fun ((c : Config.t), _) -> c.name = name) t.slots
  with
  | Some (c, slot) -> (c, stats_of t slot)
  | None ->
      invalid_arg
        (Printf.sprintf "Cachesim.Multi.find: unknown cache %S (known: %s)"
           name
           (String.concat ", " (names t)))

let miss_rate_series t =
  results t
  |> List.map (fun (cfg, st) -> (cfg.Config.name, Stats.miss_rate_pct st))
