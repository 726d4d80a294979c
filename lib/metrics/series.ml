type t = {
  title : string;
  x_label : string;
  y_label : string;
  mutable series_rev : (string * (float * float) list) list;
}

let create ~title ~x_label ~y_label =
  { title; x_label; y_label; series_rev = [] }

let add t ~name points = t.series_rev <- (name, points) :: t.series_rev

(* [List.assoc_opt x pts] and the sorted union of the series' x values,
   compared as floats (the order and the equality polymorphic compare
   gives floats, NaN included) without its per-call dispatch. *)
let y_at x pts =
  List.find_map (fun (x', y) -> if Float.compare x' x = 0 then Some y else None) pts

let union_xs series =
  List.concat_map (fun (_, pts) -> List.map fst pts) series
  |> List.sort_uniq Float.compare

let render_columns t buf =
  let series = List.rev t.series_rev in
  let xs = union_xs series in
  let names = List.map fst series in
  let columns = List.map (fun name -> List.assoc name series) names in
  let cell pts x =
    match y_at x pts with Some y -> Numfmt.general 4 y | None -> "-"
  in
  let headers = t.x_label :: names in
  let rows =
    List.map
      (fun x -> Numfmt.general 4 x :: List.map (fun pts -> cell pts x) columns)
      xs
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let pad w s =
    let n = w - String.length s in
    if n <= 0 then s else String.make n ' ' ^ s
  in
  Buffer.add_string buf
    (String.concat "  " (List.map2 pad widths headers));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "  " (List.map2 pad widths row));
      Buffer.add_char buf '\n')
    rows

(* A deliberately simple ASCII chart: one row per series per x bucket is
   overkill, so instead plot y of each series across x positions using a
   fixed-height grid. *)
let render_plot t buf =
  let series = List.rev t.series_rev in
  if series <> [] then begin
    let xs = union_xs series in
    let ys = List.concat_map (fun (_, pts) -> List.map snd pts) series in
    let ymax = List.fold_left max neg_infinity ys in
    let positive = List.filter (fun y -> y > 0.) ys in
    let ymin_pos = List.fold_left min infinity positive in
    if ymax > 0. && xs <> [] then begin
      (* Use log scale when the spread is large (page-fault curves). *)
      let log_scale = ymax /. (max ymin_pos 1e-30) > 100. in
      let height = 12 in
      let scale y =
        if y <= 0. then -1
        else if log_scale then
          let lo = log ymin_pos and hi = log ymax in
          if hi -. lo < 1e-9 then height - 1
          else
            int_of_float
              ((log y -. lo) /. (hi -. lo) *. float_of_int (height - 1))
        else int_of_float (y /. ymax *. float_of_int (height - 1))
      in
      let cols = List.length xs in
      let grid = Array.make_matrix height (cols * 3) ' ' in
      let marks = "ox+*#@%&" in
      List.iteri
        (fun si (_, pts) ->
          let mark = marks.[si mod String.length marks] in
          List.iteri
            (fun ci x ->
              match y_at x pts with
              | Some y ->
                  let r = scale y in
                  if r >= 0 && r < height then
                    grid.(height - 1 - r).(ci * 3) <- mark
              | None -> ())
            xs)
        series;
      Buffer.add_string buf
        (Printf.sprintf "\n%s vs %s%s\n" t.y_label t.x_label
           (if log_scale then " (log scale)" else ""));
      Array.iter
        (fun row ->
          Buffer.add_string buf "  |";
          Buffer.add_string buf (String.init (Array.length row) (Array.get row));
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf "  +";
      Buffer.add_string buf (String.make (cols * 3) '-');
      Buffer.add_char buf '\n';
      Buffer.add_string buf "   legend:";
      List.iteri
        (fun si (name, _) ->
          Buffer.add_string buf
            (Printf.sprintf " %c=%s" marks.[si mod String.length marks] name))
        series;
      Buffer.add_char buf '\n'
    end
  end

let render ?(plot = true) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length t.title) '-');
  Buffer.add_char buf '\n';
  render_columns t buf;
  if plot then render_plot t buf;
  Buffer.contents buf

let to_csv t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "series,x,y\n";
  List.iter
    (fun (name, pts) ->
      List.iter
        (fun (x, y) ->
          Buffer.add_string buf name;
          Buffer.add_char buf ',';
          Buffer.add_string buf (Numfmt.general 6 x);
          Buffer.add_char buf ',';
          Buffer.add_string buf (Numfmt.general 6 y);
          Buffer.add_char buf '\n')
        pts)
    (List.rev t.series_rev);
  Buffer.contents buf

let print ?plot t = print_string (render ?plot t)
