(* Replacement policies as a first-class dimension of the simulator.

   The paper's caches are direct-mapped, where replacement is forced;
   modern hierarchies (Nehalem through Coffee Lake) use pseudo-LRU
   families whose miss behaviour differs measurably from true LRU.
   The variants here follow the reverse-engineered descriptions used
   by nanoBench/cachetrace-style tools:

   - [Lru]: true least-recently-used (the paper's set-associative
     discussion).
   - [Plru]: tree pseudo-LRU — one bit per internal node of a binary
     tree over the ways, each access points its path away from the
     accessed way (Intel L1/L2 through Ivy Bridge, most L1s since).
   - [Qlru]: quad-age LRU — 2-bit age per line; a hit rejuvenates to
     [hit_age], a fill inserts at [insert_age], the victim is the
     leftmost line of age 3, ageing everyone when none exists (the
     Skylake-era L2/L3 variants; H00/H11 x M0/M1 presets below).

   Every policy is pinned to an executable naive oracle
   ([test/oracle.ml]) by a qcheck differential suite; the shared
   victim-side contract both implementations follow is:

   - invalid ways fill leftmost-first, before any replacement;
   - [victim] is consulted only when the set is full. *)

type qlru = { hit_age : int; insert_age : int }

type t =
  | Lru
  | Plru
  | Qlru of qlru

let qlru_h00_m1 = { hit_age = 0; insert_age = 1 }
let qlru_h11_m1 = { hit_age = 1; insert_age = 1 }
let qlru_h00_m0 = { hit_age = 0; insert_age = 0 }

let is_lru = function Lru -> true | _ -> false

let to_string = function
  | Lru -> "lru"
  | Plru -> "plru"
  | Qlru { hit_age; insert_age } ->
      "qlru-h" ^ string_of_int hit_age ^ "-m" ^ string_of_int insert_age

let of_string s =
  let fail () =
    Error
      (Printf.sprintf "unknown policy %S (expected lru, plru or qlru-hH-mM)" s)
  in
  match s with
  | "lru" -> Ok Lru
  | "plru" -> Ok Plru
  | _ ->
      (* qlru-hH-mM with single-digit ages 0..3 *)
      if
        String.length s = 10
        && String.sub s 0 6 = "qlru-h"
        && s.[7] = '-' && s.[8] = 'm'
      then
        match
          (int_of_string_opt (String.make 1 s.[6]),
           int_of_string_opt (String.make 1 s.[9]))
        with
        | Some h, Some m when h >= 0 && h <= 3 && m >= 0 && m <= 3 ->
            Ok (Qlru { hit_age = h; insert_age = m })
        | _ -> fail ()
      else fail ()

let equal (a : t) b = a = b
let pp ppf t = Format.pp_print_string ppf (to_string t)

(* ------------------------------------------------------------------ *)
(* Per-set replacement state                                          *)
(* ------------------------------------------------------------------ *)

module State = struct
  type policy = t

  (* One representation per policy that needs one: one packed int per
     set for PLRU's tree bits (associativity is a power of two <= 64,
     so the at most 63 node bits fit one immediate int), one byte per
     stored way for QLRU's 2-bit ages, flat over [num_sets * stride].
     QLRU stores as many ways per set as its forest member does, and
     [grow] doubles them with it: an unstored way is invalid, and an
     invalid way's age is never read (a fill sets it, and [victim]
     runs only on a full set).  LRU has none: a forest keeps an LRU
     set's ways most-recent-first, so the victim is always the last
     way. *)
  type t =
    | S_plru of { bits : int array; assoc : int }
    | S_qlru of {
        mutable ages : Bytes.t;
        mutable stride : int;
        hit_age : int;
        insert_age : int;
      }

  let create (policy : policy) ~num_sets ~assoc =
    match policy with
    | Lru -> None
    | Plru -> Some (S_plru { bits = Array.make num_sets 0; assoc })
    | Qlru { hit_age; insert_age } ->
        Some
          (S_qlru
             { ages = Bytes.make num_sets '\000';
               stride = 1;
               hit_age;
               insert_age })

  let grow = function
    | S_plru _ -> ()
    | S_qlru s ->
        let stride = s.stride in
        let wide = 2 * stride in
        let num_sets = Bytes.length s.ages / stride in
        let ages = Bytes.make (num_sets * wide) '\000' in
        for set = 0 to num_sets - 1 do
          Bytes.blit s.ages (set * stride) ages (set * wide) stride
        done;
        s.ages <- ages;
        s.stride <- wide

  (* Tree-PLRU over a heap-indexed complete binary tree: node [n] has
     children [2n+1] (ways below the midpoint) and [2n+2] (above).  A
     set bit means "the victim is in the right subtree".  Touching a
     way flips every node on its path to point at the *other* subtree. *)
  let plru_touch bits set assoc way =
    let b = ref bits.(set) in
    let node = ref 0 and lo = ref 0 and hi = ref assoc in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if way < mid then begin
        b := !b lor (1 lsl !node);
        hi := mid;
        node := (2 * !node) + 1
      end
      else begin
        b := !b land lnot (1 lsl !node);
        lo := mid;
        node := (2 * !node) + 2
      end
    done;
    bits.(set) <- !b

  let plru_victim bits set assoc =
    let b = bits.(set) in
    let node = ref 0 and lo = ref 0 and hi = ref assoc in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if b land (1 lsl !node) <> 0 then begin
        lo := mid;
        node := (2 * !node) + 2
      end
      else begin
        hi := mid;
        node := (2 * !node) + 1
      end
    done;
    !lo

  let age ages i = Char.code (Bytes.get ages i)
  let set_age ages i a = Bytes.set ages i (Char.unsafe_chr a)

  (* [hit] and [fill] are the forest's per-probe policy updates, both
     inlined. *)
  let[@inline] hit t ~set ~way =
    match t with
    | S_plru s -> plru_touch s.bits set s.assoc way
    | S_qlru s -> set_age s.ages ((set * s.stride) + way) s.hit_age

  let[@inline] fill t ~set ~way =
    match t with
    | S_plru s -> plru_touch s.bits set s.assoc way
    | S_qlru s -> set_age s.ages ((set * s.stride) + way) s.insert_age

  (* A hit retraces PLRU's path: repeating the last touch of a set
     changes nothing that orders its victims.  QLRU's hit does when it
     moves a fill's age. *)
  let hit_after_fill_changes = function
    | S_qlru s -> s.hit_age <> s.insert_age
    | S_plru _ -> false

  let victim t ~set =
    match t with
    | S_plru s -> plru_victim s.bits set s.assoc
    | S_qlru s ->
        (* A full set is stored at full width: [stride] is the
           associativity. *)
        let assoc = s.stride in
        let base = set * assoc in
        let rec max_age w acc =
          if w >= assoc then acc
          else max_age (w + 1) (Int.max acc (age s.ages (base + w)))
        in
        let m = max_age 0 0 in
        if m < 3 then
          (* Age the whole set until someone reaches 3. *)
          for w = 0 to assoc - 1 do
            set_age s.ages (base + w) (age s.ages (base + w) + (3 - m))
          done;
        let rec leftmost w =
          if w >= assoc - 1 then w
          else if age s.ages (base + w) = 3 then w
          else leftmost (w + 1)
        in
        leftmost 0

  let reset t =
    match t with
    | S_plru s -> Array.fill s.bits 0 (Array.length s.bits) 0
    | S_qlru s -> Bytes.fill s.ages 0 (Bytes.length s.ages) '\000'
end
