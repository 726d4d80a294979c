(** A program's allocation schedule: what the synthetic application
    does, with no allocator, heap or memory behind it.

    The application's random choices never depend on where an allocator
    puts an object, only on the objects' sizes and lives.  So
    (profile, scale, seed) fix one schedule, which {!Player} plays
    against any allocator and {!Driver.train_predictor} folds without
    one.  The schedule names objects by small ids: a fresh id is one
    more than the largest handed out so far, and a freed object's id is
    taken by a later birth, so ids stay below the most objects ever live
    at once.  The player maps them to addresses.

    The schedule arrives as a sequence of chunks, each a run of packed
    ops in one preallocated [int] array that {!next} refills in place.
    An op is a tag followed by its fields:

    - [Op.touch]: object id, byte offset, bytes, write (0 or 1).  One
      application access to [bytes] bytes of a live object, charged
      one instruction per word;
    - [Op.global]: byte offset, write.  One word of the program's global
      segment, charged one instruction;
    - [Op.compute]: instructions.  Register-only work;
    - [Op.malloc]: object id, size, site, long (0 or 1).  [long] is the
      object's lifetime class, decided at birth (Barrett & Zorn's
      training signal);
    - [Op.free]: object id;
    - [Op.realloc]: object id, new size. *)

module Op : sig
  val touch : int
  val global : int
  val compute : int
  val malloc : int
  val free : int
  val realloc : int

  val width : int -> int
  (** Ints an op with this tag occupies, tag included. *)
end

type t

val create : profile:Profile.t -> scale:float -> t
(** The schedule of [profile] at [scale]: {!Profile.scaled_steps}
    steps drawn from the profile's seed.  Nothing is generated until
    {!next}.
    @raise Invalid_argument when the profile does not validate. *)

val steps : t -> int

val next : t -> bool
(** Refills the chunk with the schedule's next ops, overwriting the
    previous chunk, and returns [true]; returns [false], with an empty
    chunk, once the schedule is exhausted. *)

val ops : t -> int array
(** The current chunk's storage; its ops are the first {!length} ints.
    The same array on every call. *)

val length : t -> int
