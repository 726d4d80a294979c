exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* CRC-32 (IEEE 802.3), slicing-by-8: the stdlib has no checksum and we
   take no new dependencies.  Table [k] (entries [256 k .. 256 k + 255])
   advances a byte's contribution past [k] more zero bytes, so eight
   bytes fold into the register with eight independent lookups after
   two 32-bit loads.  Table 0 alone is the byte-at-a-time definition;
   it finishes any tail of fewer than eight bytes. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let crc32 ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Binio.crc32";
  let t = crc_tables in
  let c = ref 0xFFFFFFFF and i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t (1792 + (lo land 0xFF))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + (hi land 0xFF))
      lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 1024
  let contents = Buffer.contents
  let int t v = Buffer.add_int64_le t (Int64.of_int v)
  let float t v = Buffer.add_int64_le t (Int64.bits_of_float v)
  let bool t v = Buffer.add_char t (if v then '\001' else '\000')

  let string t s =
    int t (String.length s);
    Buffer.add_string t s

  let int_array t a =
    int t (Array.length a);
    Array.iter (int t) a

  let list t f l =
    int t (List.length l);
    List.iter f l
end

module Frame = struct
  (* One self-checking envelope shared by every on-disk and on-wire
     consumer: the store's cell files and the serve protocol both frame
     payloads this way, differing only in their magic. *)

  let overhead ~magic = String.length magic + 16

  let frame ~magic payload =
    let mlen = String.length magic and len = String.length payload in
    let b = Bytes.create (len + overhead ~magic) in
    Bytes.blit_string magic 0 b 0 mlen;
    Bytes.set_int64_le b mlen (Int64.of_int len);
    Bytes.blit_string payload 0 b (mlen + 8) len;
    Bytes.set_int64_le b (mlen + 8 + len) (Int64.of_int (crc32 payload));
    Bytes.unsafe_to_string b

  (* The payload is checked where it lies; only [unframe] copies it. *)
  let verify ~magic data =
    let mlen = String.length magic in
    let total = String.length data in
    if total < mlen + 16 then Result.Error "truncated frame"
    else if not (String.starts_with ~prefix:magic data) then
      Result.Error "bad magic (not a loclab artifact, or an incompatible frame)"
    else
      let len = Int64.to_int (String.get_int64_le data mlen) in
      if len < 0 || total <> mlen + 8 + len + 8 then
        Result.Error
          (Printf.sprintf "bad frame length %d for a %d-byte file" len total)
      else
        let crc = Int64.to_int (String.get_int64_le data (mlen + 8 + len)) in
        let actual = crc32 ~off:(mlen + 8) ~len data in
        if crc <> actual then
          Result.Error
            (Printf.sprintf "CRC mismatch (stored %#x, computed %#x)" crc
               actual)
        else Result.Ok (mlen + 8, len)

  let unframe ~magic data =
    Result.map (fun (off, len) -> String.sub data off len) (verify ~magic data)
end

module Reader = struct
  (* Reads [data] from [pos] up to [stop].  A payload read in place
     inside its frame starts at [base]; errors give offsets from there,
     as they would in a copy of the payload. *)
  type t = { data : string; base : int; mutable pos : int; stop : int }

  let of_string ?(off = 0) ?len data =
    let len = match len with Some l -> l | None -> String.length data - off in
    if off < 0 || len < 0 || off > String.length data - len then
      invalid_arg "Binio.Reader.of_string";
    { data; base = off; pos = off; stop = off + len }

  let need t n =
    if n < 0 || n > t.stop - t.pos then
      fail "truncated payload: need %d bytes at offset %d of %d" n
        (t.pos - t.base) (t.stop - t.base)

  let int t =
    need t 8;
    let v = Int64.to_int (String.get_int64_le t.data t.pos) in
    t.pos <- t.pos + 8;
    v

  let float t =
    need t 8;
    let v = Int64.float_of_bits (String.get_int64_le t.data t.pos) in
    t.pos <- t.pos + 8;
    v

  let bool t =
    need t 1;
    let c = t.data.[t.pos] in
    t.pos <- t.pos + 1;
    match c with
    | '\000' -> false
    | '\001' -> true
    | c ->
        fail "bad bool byte %#x at offset %d" (Char.code c) (t.pos - t.base - 1)

  let string t =
    let n = int t in
    need t n;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let length_prefix t what =
    let n = int t in
    (* Each element takes at least one byte, so a length beyond the
       remaining bytes is corruption — reject it before allocating. *)
    if n < 0 || n > t.stop - t.pos then
      fail "bad %s length %d at offset %d" what n (t.pos - t.base - 8);
    n

  let int_array t =
    let n = length_prefix t "array" in
    Array.init n (fun _ -> int t)

  let list t f =
    let n = length_prefix t "list" in
    List.init n (fun _ -> f t)

  let at_end t = t.pos = t.stop
end
