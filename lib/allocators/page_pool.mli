(** Page-granular storage with a contiguous "heapinfo" table.

    This is the lower layer of Mike Haertel's GNU malloc (the paper's
    GNU LOCAL): the heap is divided into 4 KB pages, and {e all}
    metadata about them lives in one small, densely packed table in
    static data — one entry per page — so finding a block never touches
    the heap itself ("only the information in the chunk headers must be
    traversed").

    Free pages form runs tracked by a doubly-linked list threaded
    through the table entries; allocation is first fit over that list,
    with constant-time coalescing of freed runs against both
    neighbours.  Higher layers ({!Gnu_local}, {!Custom}) mark pages they
    subdivide into same-size fragments by overwriting the page's status
    and aux words. *)

val page_bytes : int
(** 4096. *)

val pages_of_bytes : int -> int
(** Pages needed to hold the given byte count (at least 1). *)

(** {1 Status words}

    Each table entry is four words: status, aux, next, prev.
    For a free-run head, aux is the run length and next/prev link the
    free list; for a free-run tail, aux points back to the head; for a
    used-run head, aux is the run length.  Fragment users overwrite the
    status with {!frag_status} and use aux as their free count. *)

val status_free_head : int
val status_free_tail : int
val status_used_head : int
val status_used_cont : int

val frag_status : int -> int
(** [frag_status k] marks a page subdivided into class-[k] fragments. *)

val class_of_frag_status : int -> int option

type t

val create : Heap.t -> t
(** Sizes the table from the heap region (16 bytes of static data per
    possible page).  The heap region base must be page-aligned. *)

val heap : t -> Heap.t

val alloc_pages : t -> int -> Memsim.Addr.t
(** First-fit allocation of a run of [n] pages; extends the heap (in
    16-page chunks minimum) when no run fits.  Returns the page-aligned
    base address. *)

val free_pages : t -> Memsim.Addr.t -> unit
(** Frees the used run whose head page starts at the given address,
    coalescing with free neighbours.  The head entry must carry
    [status_used_head] with the run length in aux (restore these before
    calling if the page was used for fragments). *)

(** {1 Table access for fragment users (traced)} *)

val ordinal_of_addr : t -> Memsim.Addr.t -> int
val addr_of_ordinal : t -> int -> Memsim.Addr.t
val load_status : t -> int -> int
val store_status : t -> int -> int -> unit
val load_aux : t -> int -> int
val store_aux : t -> int -> int -> unit

val peek_status : t -> int -> int
(** Untraced status read, for tests. *)

val peek_aux : t -> int -> int
(** Untraced aux read, for tests. *)

(** {1 Inspection (untraced)} *)

val used_page_count : t -> int
val check_invariants : t -> unit
(** Verifies that runs tile the allocated heap, no two free runs are
    adjacent, and the free list matches the shadow model. *)
