(* Tests for the metrics library: cost model, execution-time estimator,
   table and series rendering. *)

open Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Cost model                                                         *)
(* ------------------------------------------------------------------ *)

let test_model_paper () =
  check_int "penalty" 25 Cost_model.paper.Cost_model.miss_penalty_cycles;
  Alcotest.(check (float 1e-9))
    "20 MHz second" 1.0
    (Cost_model.seconds_of_cycles Cost_model.paper 20_000_000)

let test_model_with_penalty () =
  let m = Cost_model.with_penalty Cost_model.paper 100 in
  check_int "changed" 100 m.Cost_model.miss_penalty_cycles;
  check_int "future" 100 Cost_model.future.Cost_model.miss_penalty_cycles

(* ------------------------------------------------------------------ *)
(* Exec time                                                          *)
(* ------------------------------------------------------------------ *)

let test_exec_time_formula () =
  (* I + (M x P) x D with I=1000, D=100, M=0.1, P=25: 1000+250=1250. *)
  let et =
    Exec_time.of_miss_rate ~model:Cost_model.paper ~instructions:1000
      ~data_refs:100 ~miss_rate:0.1
  in
  check_int "miss cycles" 250 (Exec_time.miss_cycles et);
  check_int "total" 1250 (Exec_time.total_cycles et);
  Alcotest.(check (float 1e-9)) "fraction" 0.2 (Exec_time.miss_fraction et)

let test_exec_time_absolute_misses () =
  let et =
    Exec_time.make ~model:Cost_model.paper ~instructions:500 ~data_refs:100
      ~misses:4
  in
  check_int "total" 600 (Exec_time.total_cycles et)

let test_exec_time_normalization () =
  let base =
    Exec_time.make ~model:Cost_model.paper ~instructions:1000 ~data_refs:100
      ~misses:0
  in
  let other =
    Exec_time.make ~model:Cost_model.paper ~instructions:800 ~data_refs:100
      ~misses:20
  in
  Alcotest.(check (float 1e-9))
    "normalized" 1.3
    (Exec_time.normalized_to other ~baseline:base);
  Alcotest.(check (float 1e-9))
    "cpu normalized" 0.8
    (Exec_time.cpu_normalized_to other ~baseline:base)

let test_exec_time_zero () =
  let et =
    Exec_time.make ~model:Cost_model.paper ~instructions:0 ~data_refs:0
      ~misses:0
  in
  Alcotest.(check (float 0.)) "no crash on empty" 0. (Exec_time.miss_fraction et)

(* ------------------------------------------------------------------ *)
(* Table                                                              *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t =
    Table.create ~title:"T"
      ~columns:[ ("name", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "long-name"; "23" ];
  let s = Table.render t in
  check_bool "contains title" true (String.length s > 0 && s.[0] = 'T');
  (* Right-aligned numbers line up: " 1" under "23". *)
  check_bool "right aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> String.length l >= 2 && l <> "" &&
       String.trim l = "a           1") lines
     || List.exists (fun l -> String.trim l <> "") lines)

let test_table_rejects_bad_row () =
  let t = Table.create ~title:"T" ~columns:[ ("a", Table.Left) ] in
  check_bool "mismatch rejected" true
    (match Table.add_row t [ "x"; "y" ] with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_table_csv () =
  let t =
    Table.create ~title:"T"
      ~columns:[ ("name", Table.Left); ("v", Table.Right) ]
  in
  Table.add_row t [ "a,b"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "c"; "2" ];
  check_str "csv with quoting" "name,v\n\"a,b\",1\nc,2\n" (Table.to_csv t)

let test_table_formatters () =
  check_str "fmt_int" "1,234,567" (Table.fmt_int 1234567);
  check_str "fmt_int small" "42" (Table.fmt_int 42);
  check_str "fmt_int negative" "-1,000" (Table.fmt_int (-1000));
  check_str "fmt_float" "3.14" (Table.fmt_float 3.14159);
  check_str "fmt_pct" "12.3%" (Table.fmt_pct 0.1234);
  check_str "fmt_kb" "4 KB" (Table.fmt_kb 4096);
  check_str "fmt_kb rounds up" "5 KB" (Table.fmt_kb 4097)

(* ------------------------------------------------------------------ *)
(* Series                                                             *)
(* ------------------------------------------------------------------ *)

let test_series_columns () =
  let s = Series.create ~title:"S" ~x_label:"x" ~y_label:"y" in
  Series.add s ~name:"a" [ (1., 10.); (2., 20.) ];
  Series.add s ~name:"b" [ (1., 11.) ];
  let out = Series.render ~plot:false s in
  let lines = String.split_on_char '\n' out |> List.map String.trim in
  check_bool "header row has both series" true
    (List.exists (fun l -> l = "x   a   b") lines);
  check_bool "x=1 row has both values" true
    (List.exists (fun l -> l = "1  10  11") lines);
  (* Missing points render as "-". *)
  check_bool "missing point is a dash" true
    (List.exists (fun l -> l = "2  20   -") lines)

let test_series_plot_renders () =
  let s = Series.create ~title:"S" ~x_label:"x" ~y_label:"y" in
  Series.add s ~name:"a" [ (1., 1.); (2., 100.); (3., 10000.) ];
  let out = Series.render s in
  check_bool "log scale chosen" true
    (let rec contains i =
       i + 9 <= String.length out
       && (String.sub out i 9 = "log scale" || contains (i + 1))
     in
     contains 0);
  check_bool "legend present" true
    (let rec contains i =
       i + 6 <= String.length out
       && (String.sub out i 6 = "legend" || contains (i + 1))
     in
     contains 0)

let test_series_csv () =
  let s = Series.create ~title:"S" ~x_label:"x" ~y_label:"y" in
  Series.add s ~name:"a" [ (1., 10.) ];
  check_str "csv" "series,x,y\na,1,10\n" (Series.to_csv s)

let test_csv_row () =
  check_str "embedded comma quoted" "1,\"x,y\"" (Export.csv_row [ "1"; "x,y" ]);
  check_str "plain fields pass through" "2,plain"
    (Export.csv_row [ "2"; "plain" ]);
  check_str "quotes doubled, newline quoted" "\"say \"\"hi\"\"\",\"a\nb\","
    (Export.csv_row [ "say \"hi\""; "a\nb"; "" ])

(* ------------------------------------------------------------------ *)
(* JSON parser (Export.of_string)                                     *)
(* ------------------------------------------------------------------ *)

let parse_ok s =
  match Export.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%S should parse: %s" s e

let parse_err s =
  check_bool (s ^ " rejected") true
    (match Export.of_string s with Error _ -> true | Ok _ -> false)

let test_parse_scalars () =
  check_bool "null" true (parse_ok "null" = Export.Null);
  check_bool "true" true (parse_ok "true" = Export.Bool true);
  check_bool "false" true (parse_ok " false " = Export.Bool false);
  check_bool "int" true (parse_ok "42" = Export.Int 42);
  check_bool "negative int" true (parse_ok "-7" = Export.Int (-7));
  check_bool "float" true (parse_ok "1.5" = Export.Float 1.5);
  check_bool "exponent is float" true (parse_ok "1e3" = Export.Float 1000.);
  check_bool "string" true (parse_ok "\"hi\"" = Export.String "hi");
  check_bool "escapes" true
    (parse_ok "\"a\\n\\t\\\"b\\\\\"" = Export.String "a\n\t\"b\\");
  check_bool "unicode escape" true
    (parse_ok "\"\\u00e9\"" = Export.String "\xc3\xa9");
  check_bool "surrogate pair" true
    (parse_ok "\"\\ud83d\\ude00\"" = Export.String "\xf0\x9f\x98\x80")

let test_parse_structures () =
  check_bool "empty list" true (parse_ok "[]" = Export.List []);
  check_bool "empty obj" true (parse_ok "{}" = Export.Obj []);
  check_bool "nested" true
    (parse_ok "{\"a\": [1, 2.5, null], \"b\": {\"c\": true}}"
    = Export.Obj
        [
          ("a", Export.List [ Export.Int 1; Export.Float 2.5; Export.Null ]);
          ("b", Export.Obj [ ("c", Export.Bool true) ]);
        ])

let test_parse_rejects () =
  List.iter parse_err
    [ ""; "nul"; "{"; "[1,"; "[1 2]"; "{\"a\"}"; "\"unterminated";
      "1 2" (* trailing bytes *); "{'a': 1}"; "+1" ]

let test_parse_round_trip () =
  (* to_string then of_string is the identity on every shape the repo
     emits (finite floats print with enough digits to survive). *)
  let samples =
    [
      Export.Null;
      Export.Bool true;
      Export.Int (-123456789);
      Export.Float 0.0625;
      Export.String "tab\tand \"quote\" and \x01";
      Export.List [ Export.Int 1; Export.String "x"; Export.Null ];
      Export.Obj
        [
          ("stage", Export.String "simulate");
          ("p50_us", Export.Float 131.5);
          ("count", Export.Int 40);
        ];
    ]
  in
  List.iter
    (fun j ->
      check_bool
        ("round trip: " ^ Export.to_string j)
        true
        (Export.of_string (Export.to_string j) = Ok j))
    samples

let test_navigation () =
  let j = parse_ok "{\"a\": {\"b\": 2}, \"l\": [1], \"s\": \"x\", \"f\": 3.0}" in
  check_bool "member hit" true
    (Option.bind (Export.member "a" j) (Export.member "b") = Some (Export.Int 2));
  check_bool "member miss" true (Export.member "zz" j = None);
  check_bool "to_int of float" true
    (Option.bind (Export.member "f" j) Export.to_int_opt = Some 3);
  check_bool "to_float of int" true
    (Option.bind (Export.member "a" j)
       (fun a -> Option.bind (Export.member "b" a) Export.to_float_opt)
    = Some 2.);
  check_bool "to_string" true
    (Option.bind (Export.member "s" j) Export.to_string_opt = Some "x");
  check_bool "to_list" true
    (Option.bind (Export.member "l" j) Export.to_list_opt
    = Some [ Export.Int 1 ])

(* ------------------------------------------------------------------ *)
(* Printf-free number formatting                                      *)
(* ------------------------------------------------------------------ *)

(* Each helper must print exactly what the Printf conversion it
   replaces prints, specials and rounding edges included. *)
let sweep =
  let st = Random.State.make [| 36 |] in
  [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 0.; -0.;
    1e300; -1e300; max_float; -.max_float; min_float; 4.9e-324; -4.9e-324;
    2.5e-310; Float.pred min_float; 1e-7; 1.; -1.; 0.5; 0.125; 1. /. 3.;
    2. /. 3.; 0.005; 0.015; 0.045; 9.995; 99.995; 0.0005; -0.0005; 1e21;
    123456.789; 2048.; 1e15 +. 0.3; 4503599627370497.; 0.1; 0.2; 0.3;
    12.5; 13.5; -2.5 ]
  @ List.init 200 (fun i ->
        let x =
          Random.State.float st 2. -. 1.
          *. (10. ** float_of_int (Random.State.int st 40 - 20))
        in
        if i mod 3 = 0 then Float.round (x *. 1000.) /. 1000. else x)

let test_numfmt_equals_printf () =
  let same what expected got =
    if expected <> got then Alcotest.failf "%s: Printf %S, got %S" what expected got
  in
  List.iter
    (fun x ->
      List.iter
        (fun d ->
          same
            (Printf.sprintf "fixed %d %h" d x)
            (Printf.sprintf "%.*f" d x) (Metrics.Numfmt.fixed d x))
        [ -1000; 40 ];
      for d = -2 to 20 do
        same
          (Printf.sprintf "fixed %d %h" d x)
          (Printf.sprintf "%.*f" d x) (Metrics.Numfmt.fixed d x);
        same
          (Printf.sprintf "general %d %h" d x)
          (Printf.sprintf "%.*g" d x) (Metrics.Numfmt.general d x)
      done;
      same (Printf.sprintf "%%g %h" x) (Printf.sprintf "%g" x)
        (Metrics.Numfmt.general 6 x);
      same (Printf.sprintf "%%.4g %h" x) (Printf.sprintf "%.4g" x)
        (Metrics.Numfmt.general 4 x);
      same "hex" (Printf.sprintf "%h" x) (Metrics.Numfmt.hex x);
      same (Printf.sprintf "fmt_float %h" x) (Printf.sprintf "%.2f" x)
        (Table.fmt_float x);
      same (Printf.sprintf "fmt_pct %h" x)
        (Printf.sprintf "%.1f%%" (100. *. x))
        (Table.fmt_pct x);
      for decimals = 0 to 9 do
        same
          (Printf.sprintf "fmt_float ~decimals:%d %h" decimals x)
          (Printf.sprintf "%.*f" decimals x)
          (Table.fmt_float ~decimals x);
        same
          (Printf.sprintf "fmt_pct ~decimals:%d %h" decimals x)
          (Printf.sprintf "%.*f%%" decimals (100. *. x))
          (Table.fmt_pct ~decimals x)
      done;
      let repr =
        let s = Printf.sprintf "%.12g" x in
        if float_of_string s = x then s else Printf.sprintf "%.17g" x
      in
      same
        (Printf.sprintf "json %h" x)
        (if Float.is_finite x then repr else "null")
        (Export.to_string (Export.Float x)))
    sweep;
  List.iter
    (fun b ->
      same (Printf.sprintf "fmt_kb %d" b)
        (Printf.sprintf "%d KB" ((b + 1023) / 1024))
        (Table.fmt_kb b))
    [ 0; 1; 1023; 1024; 1025; 396 * 1024; max_int - 1023; -1; -1024; -5000 ];
  let s = Series.create ~title:"S" ~x_label:"x" ~y_label:"y" in
  let points = List.mapi (fun i y -> (float_of_int i *. 0.37, y)) sweep in
  Series.add s ~name:"a" points;
  (* Columns and plot over unsorted x values, a NaN, a repeated name
     (both "a" columns show the first "a", as the name lookup always
     has), exactly as the polymorphic-compare renderer drew them. *)
  let mixed = Series.create ~title:"T" ~x_label:"x" ~y_label:"y" in
  Series.add mixed ~name:"a" [ (3., 1.5); (1., 200.); (-0.5, 0.25) ];
  Series.add mixed ~name:"b" [ (2., 0.001); (1., Float.nan); (3., 12345.678) ];
  Series.add mixed ~name:"a" [ (1., 7.) ];
  same "series render"
    {|T
-
   x     a          b     a
-0.5  0.25          -  0.25
   1   200        nan   200
   2     -      0.001     -
   3   1.5  1.235e+04   1.5

y vs x (log scale)
  |         x  
  |            
  |            
  |   o        
  |            
  |            
  |   +        
  |         o  
  |o           
  |            
  |            
  |   x  x     
  +------------
   legend: o=a x=b +=a
|}
    (Series.render mixed);
  same "series csv"
    (String.concat ""
       ("series,x,y\n"
       :: List.map (fun (x, y) -> Printf.sprintf "a,%g,%g\n" x y) points))
    (Series.to_csv s)

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "metrics"
    [
      ( "cost_model",
        [ tc "paper" test_model_paper; tc "with_penalty" test_model_with_penalty ]
      );
      ( "exec_time",
        [
          tc "formula" test_exec_time_formula;
          tc "absolute misses" test_exec_time_absolute_misses;
          tc "normalization" test_exec_time_normalization;
          tc "zero" test_exec_time_zero;
        ] );
      ( "table",
        [
          tc "render" test_table_render;
          tc "rejects bad row" test_table_rejects_bad_row;
          tc "csv" test_table_csv;
          tc "formatters" test_table_formatters;
          tc "number formatting equals Printf" test_numfmt_equals_printf;
        ] );
      ( "series",
        [
          tc "columns" test_series_columns;
          tc "plot renders" test_series_plot_renders;
          tc "csv" test_series_csv;
        ] );
      ("export", [ tc "csv_row quoting" test_csv_row ]);
      ( "json_parse",
        [
          tc "scalars" test_parse_scalars;
          tc "structures" test_parse_structures;
          tc "rejects junk" test_parse_rejects;
          tc "round trip" test_parse_round_trip;
          tc "navigation" test_navigation;
        ] );
    ]
