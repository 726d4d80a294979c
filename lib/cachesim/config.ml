type t = {
  name : string;
  size_bytes : int;
  block_bytes : int;
  associativity : int;
  policy : Policy.t;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let default_name ~size_bytes ~associativity ~policy =
  let size =
    if size_bytes >= 1 lsl 20 && size_bytes mod (1 lsl 20) = 0 then
      Printf.sprintf "%dM" (size_bytes lsr 20)
    else if size_bytes mod 1024 = 0 then Printf.sprintf "%dK" (size_bytes lsr 10)
    else Printf.sprintf "%dB" size_bytes
  in
  let base =
    if associativity = 1 then size ^ "-dm"
    else Printf.sprintf "%s-%dway" size associativity
  in
  (* LRU is the historical default; only non-default policies show up
     in derived names, keeping the paper-era labels stable. *)
  if Policy.is_lru policy then base
  else Printf.sprintf "%s-%s" base (Policy.to_string policy)

let make ?name ?(block_bytes = 32) ?(associativity = 1) ?(policy = Policy.Lru)
    size_bytes =
  if not (is_power_of_two size_bytes) then
    invalid_arg
      (Printf.sprintf "Cachesim.Config.make: size %d is not a power of two"
         size_bytes);
  if not (is_power_of_two block_bytes) then
    invalid_arg
      (Printf.sprintf
         "Cachesim.Config.make: block size %d is not a power of two"
         block_bytes);
  if size_bytes mod block_bytes <> 0 then
    invalid_arg
      (Printf.sprintf
         "Cachesim.Config.make: block size %d does not divide capacity %d"
         block_bytes size_bytes);
  let blocks = size_bytes / block_bytes in
  if
    associativity < 1
    || (not (is_power_of_two associativity))
    || blocks mod associativity <> 0
  then
    invalid_arg
      (Printf.sprintf
         "Cachesim.Config.make: associativity %d is invalid for %d blocks \
          (must be a power of two dividing the block count)"
         associativity blocks);
  let name =
    match name with
    | Some n -> n
    | None -> default_name ~size_bytes ~associativity ~policy
  in
  (* PLRU keeps a set's tree bits in one int: 63 bits, so 64 ways. *)
  if policy = Policy.Plru && associativity > 64 then
    invalid_arg
      (Printf.sprintf
         "Cachesim.Config.make: %s: plru supports at most 64 ways, not %d"
         name associativity);
  { name; size_bytes; block_bytes; associativity; policy }

let num_sets t = t.size_bytes / (t.block_bytes * t.associativity)
let num_blocks t = t.size_bytes / t.block_bytes

let paper_direct_mapped =
  List.map (fun k -> make (k * 1024)) [ 16; 32; 64; 128; 256 ]

let pp ppf t =
  Format.fprintf ppf "%s (%d bytes, %d-byte blocks, %d-way, %s)" t.name
    t.size_bytes t.block_bytes t.associativity
    (Policy.to_string t.policy)
