type t = int

let word_bytes = 4
let null = 0
let is_null a = a = null

let is_aligned a ~alignment =
  assert (alignment > 0);
  a mod alignment = 0

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let align_up a ~alignment =
  assert (is_power_of_two alignment);
  (a + alignment - 1) land lnot (alignment - 1)

let align_down a ~alignment =
  assert (is_power_of_two alignment);
  a land lnot (alignment - 1)

let word_aligned a = a land (word_bytes - 1) = 0
let word_index a = a lsr 2

let block_index a ~block_bytes =
  assert (is_power_of_two block_bytes);
  a / block_bytes

let page_index a ~page_bytes =
  assert (page_bytes > 0);
  a / page_bytes

let pp ppf a = Format.fprintf ppf "0x%08x" a

module Index_table = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* Fibonacci hashing: the high bits of the product depend on every
     low bit of the key, and the table indexes buckets by the low bits
     of the hash, so the product is shifted down. *)
  let hash k = (k * 0x9E3779B97F4A7C1) lsr 32
end)
