(** Compact self-describing binary codec primitives.

    Writers append length-prefixed fields to a growing buffer; readers
    consume them in the same order.  Every field is fixed-width
    little-endian or length-prefixed, so a truncated or reordered
    payload is detected as soon as a read runs past the end (never a
    segfault, never a silent partial value).  The CRC-32 here guards
    whole payloads: frame writers append [crc32 payload] and verify it
    before handing the payload to typed decoders. *)

exception Error of string
(** Raised by readers on truncation or malformed data.  Frame and
    artifact decoders catch it and turn it into a reported corruption,
    so it never escapes to renderers. *)

val crc32 : ?off:int -> ?len:int -> string -> int
(** CRC-32 (IEEE 802.3, the zlib polynomial) of the [len] bytes of the
    string from [off] (default: the whole string), in [0, 0xFFFFFFFF].
    Slicing-by-8: eight bytes per step, bit-identical to the
    byte-at-a-time definition.
    @raise Invalid_argument when [off] and [len] do not name a
    substring. *)

(** The self-checking payload envelope shared by the store's cell files
    and the serve wire protocol: [magic | length (8 LE) | payload |
    crc32(payload) (8 LE)].  Consumers differ only in their magic. *)
module Frame : sig
  val overhead : magic:string -> int
  (** Bytes a frame adds around its payload. *)

  val frame : magic:string -> string -> string

  val verify : magic:string -> string -> (int * int, string) result
  (** [Ok (off, len)]: the frame is sound and its payload is the [len]
      bytes at [off], checked in place without a copy.  [Error reason]
      on a short buffer, foreign magic, inconsistent length or CRC
      mismatch; never raises. *)

  val unframe : magic:string -> string -> (string, string) result
  (** {!verify}, then a copy of the payload. *)
end

(** Append-only binary writer. *)
module Writer : sig
  type t

  val create : unit -> t
  val contents : t -> string

  val int : t -> int -> unit
  (** Full OCaml int (63-bit), as 8 little-endian bytes (sign
      extended). *)

  val float : t -> float -> unit
  (** IEEE-754 bits, 8 bytes; NaNs and infinities round-trip. *)

  val bool : t -> bool -> unit

  val string : t -> string -> unit
  (** Length-prefixed bytes. *)

  val int_array : t -> int array -> unit

  val list : t -> ('a -> unit) -> 'a list -> unit
  (** Length prefix, then each element via the callback. *)
end

(** Sequential reader over a string written by {!Writer}. *)
module Reader : sig
  type t

  val of_string : ?off:int -> ?len:int -> string -> t
  (** A reader over the [len] bytes from [off] (default: the whole
      string), e.g. a payload {!Frame.verify} found in place.  Error
      messages give offsets from [off].
      @raise Invalid_argument when [off] and [len] do not name a
      substring. *)

  val int : t -> int
  val float : t -> float
  val bool : t -> bool
  val string : t -> string
  val int_array : t -> int array
  val list : t -> (t -> 'a) -> 'a list

  val at_end : t -> bool
  (** True when every byte up to [off + len] has been consumed; typed
      decoders check it to reject payloads with trailing garbage. *)
end
