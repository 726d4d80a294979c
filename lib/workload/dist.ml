type t = {
  values : int array;
  cumulative : float array;  (* ascending, last = 1.0 *)
  probs : (int * float) list;  (* merged, normalised *)
}

let create pairs =
  if pairs = [] then invalid_arg "Dist.create: empty distribution";
  List.iter
    (fun (_, w) ->
      if w <= 0. then invalid_arg "Dist.create: weights must be positive")
    pairs;
  let merged = Hashtbl.create 16 in
  List.iter
    (fun (v, w) ->
      Hashtbl.replace merged v
        (w +. Option.value ~default:0. (Hashtbl.find_opt merged v)))
    pairs;
  let items =
    Hashtbl.fold (fun v w acc -> (v, w) :: acc) merged []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. items in
  let values = Array.of_list (List.map fst items) in
  let cumulative = Array.make (Array.length values) 0. in
  let acc = ref 0. in
  List.iteri
    (fun i (_, w) ->
      acc := !acc +. (w /. total);
      cumulative.(i) <- !acc)
    items;
  cumulative.(Array.length cumulative - 1) <- 1.0;
  { values; cumulative; probs = List.map (fun (v, w) -> (v, w /. total)) items }

let sample t rng =
  let u = Rng.float rng in
  (* Smallest index with cumulative >= u. *)
  let lo = ref 0 and hi = ref (Array.length t.cumulative - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cumulative.(mid) >= u then hi := mid else lo := mid + 1
  done;
  t.values.(!lo)

let mean t =
  List.fold_left (fun acc (v, p) -> acc +. (float_of_int v *. p)) 0. t.probs

let support t = Array.to_list t.values
let weight_of t v = Option.value ~default:0. (List.assoc_opt v t.probs)

let to_histogram t ~scale =
  List.map
    (fun (v, p) -> (v, Int.max 1 (int_of_float (p *. float_of_int scale))))
    t.probs
