(** Persistent, content-addressed result store.

    A store is a directory of CRC-guarded blobs, one file per cell,
    named by the caller's key digest: [<root>/<digest>.art].  The store
    itself is typed-schema agnostic — it persists and verifies framed
    byte payloads; {!Core.Artifact} owns the typed encoding — so any
    worker can fill cells and any reader can render from them.

    Durability and failure model:
    - writes go to a temp file in the same directory and are
      [rename]d into place, so a reader never observes a partial cell
      and concurrent writers of the same digest are safe (last rename
      wins; contents are identical by construction because the digest
      covers every input of the simulation);
    - reads verify the frame magic, length and CRC-32; any mismatch is
      reported as {!Corrupt} (and logged on the [loclab.store] source),
      never an exception — callers degrade to re-simulation. *)

type t

val open_ : string -> t
(** [open_ dir] creates [dir] (and parents) if needed.
    @raise Sys_error when [dir] exists and is not a directory, or
    cannot be created. *)

val root : t -> string

type lookup =
  | Hit of string  (** The verified payload. *)
  | Miss
  | Corrupt of string  (** Reason: bad magic, truncation, CRC... *)

val find : t -> digest:string -> lookup
(** Look a cell up by digest.  Corruption is also logged as a warning
    on the [loclab.store] log source. *)

val put : t -> digest:string -> string -> unit
(** Frame the payload (magic, length, CRC-32) and atomically install it
    as [<root>/<digest>.art] via write-temp-then-rename. *)

val mem : t -> digest:string -> bool
(** True iff {!find} would return [Hit] (frame fully verified). *)

val ls : t -> string list
(** Digests of every [.art] cell currently in the store, sorted. *)

val gc : t -> keep:(digest:string -> payload:string -> bool) -> string list
(** Remove corrupt cells, leftover temp files, and verified cells the
    [keep] predicate rejects (e.g. foreign schema versions).  Returns
    the removed file names (relative to the root), sorted. *)
