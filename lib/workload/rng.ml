(* SplitMix64: tiny, fast, and plenty good for workload synthesis.

   The 64-bit state lives unboxed in 8 bytes, read and written with
   [Bytes.get/set_int64_ne]: a [mutable int64] field would box a fresh
   int64 on every draw.  The draws are inlined, so in a caller the
   intermediate int64s stay in registers and [int]/[float]/[bool]
   allocate nothing.

   [float] converts its 53 random bits through [int], not with
   [Int64.to_float]: that is a C call ([caml_int64_to_float_unboxed])
   on every draw, while [Float.of_int] is one instruction.  A 53-bit
   value fits a 63-bit int and converts exactly either way, so the
   draws are bit-identical. *)

type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* [r] is non-negative, so a power-of-two bound is a mask: the same
   value as [mod] without a 64-bit division, which costs tens of cycles.
   Most call sites see one kind of bound, so the test predicts well. *)
let[@inline] int t bound =
  assert (bound >= 1);
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  if bound land (bound - 1) = 0 then r land (bound - 1) else r mod bound

let[@inline] float t =
  let r =
    Float.of_int (Int64.to_int (Int64.shift_right_logical (next_int64 t) 11))
  in
  r /. 9007199254740992. (* 2^53 *)

(* [float t < p] with both sides scaled by 2^53, which is exact: the
   draw's 53 bits are compared with [p * 2^53], and the branch a caller
   takes on the result no longer waits for a division. *)
let[@inline] bool t p =
  Float.of_int (Int64.to_int (Int64.shift_right_logical (next_int64 t) 11))
  < p *. 0x1p53

let geometric t p =
  assert (p > 0. && p <= 1.);
  if p >= 1. then 0
  else begin
    let u = float t in
    (* Inverse transform; cap to keep pathological draws finite. *)
    let v = log1p (-.u) /. log1p (-.p) in
    Int.min 1_000_000 (int_of_float v)
  end

let exponential t ~mean =
  assert (mean > 0.);
  let u = float t in
  -.mean *. log1p (-.u)
