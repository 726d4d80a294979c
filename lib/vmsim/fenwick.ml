(* Classic 1-indexed Fenwick tree, exposed with 0-indexed positions. *)

type t = { tree : int array; n : int }

let create n =
  assert (n > 0);
  { tree = Array.make (n + 1) 0; n }

let capacity t = t.n

let add t i delta =
  assert (i >= 0 && i < t.n);
  let i = ref (i + 1) in
  while !i <= t.n do
    t.tree.(!i) <- t.tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

let prefix_sum t i =
  if i < 0 then 0
  else begin
    let i = ref (Int.min i (t.n - 1) + 1) in
    let sum = ref 0 in
    while !i > 0 do
      sum := !sum + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !sum
  end

let range_sum t ~lo ~hi =
  if hi < lo then 0 else prefix_sum t hi - prefix_sum t (lo - 1)

let total t = prefix_sum t (t.n - 1)
let clear t = Array.fill t.tree 0 (Array.length t.tree) 0
