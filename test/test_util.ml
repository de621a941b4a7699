open Sf_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-12))

(* ---------------------------------------------------------------- Ivec *)

let test_ivec_basic () =
  let a = Ivec.of_list [ 1; 2; 3 ] and b = Ivec.of_list [ 4; 5; 6 ] in
  check_bool "equal self" true (Ivec.equal a a);
  check_bool "not equal" false (Ivec.equal a b);
  Alcotest.(check (list int)) "add" [ 5; 7; 9 ] (Ivec.to_list (Ivec.add a b));
  Alcotest.(check (list int)) "sub" [ -3; -3; -3 ] (Ivec.to_list (Ivec.sub a b));
  Alcotest.(check (list int)) "neg" [ -1; -2; -3 ] (Ivec.to_list (Ivec.neg a));
  Alcotest.(check (list int)) "scale" [ 2; 4; 6 ] (Ivec.to_list (Ivec.scale 2 a));
  Alcotest.(check (list int)) "mul" [ 4; 10; 18 ] (Ivec.to_list (Ivec.mul a b));
  check_int "dot" 32 (Ivec.dot a b);
  check_int "product" 6 (Ivec.product a);
  check_int "l1" 6 (Ivec.l1_norm (Ivec.of_list [ 1; -2; 3 ]));
  check_int "linf" 3 (Ivec.linf_norm (Ivec.of_list [ 1; -2; 3 ]));
  check_bool "is_zero yes" true (Ivec.is_zero (Ivec.zero 3));
  check_bool "is_zero no" false (Ivec.is_zero a)

let test_ivec_compare () =
  let a = Ivec.of_list [ 1; 2 ] and b = Ivec.of_list [ 1; 3 ] in
  check_bool "lex lt" true (Ivec.compare a b < 0);
  check_bool "lex gt" true (Ivec.compare b a > 0);
  check_int "lex eq" 0 (Ivec.compare a a);
  (* shorter vectors sort first *)
  check_bool "rank order" true (Ivec.compare (Ivec.zero 1) (Ivec.zero 2) < 0)

(* equal and compare agree, look at the rank first and then every
   element in order, and order signed values numerically *)
let test_ivec_equal_compare () =
  let v = Ivec.of_list in
  check_bool "rank mismatch unequal" false (Ivec.equal (v [ 1; 2 ]) (v [ 1; 2; 3 ]));
  check_bool "rank before values" true (Ivec.compare (v [ 9 ]) (v [ 0; 0 ]) < 0);
  check_bool "distinct arrays, equal values" true (Ivec.equal (v [ 4; -5 ]) (v [ 4; -5 ]));
  check_bool "last element differs" false (Ivec.equal (v [ 4; -5 ]) (v [ 4; 5 ]));
  check_bool "signed order" true (Ivec.compare (v [ 0; -1 ]) (v [ 0; 0 ]) < 0);
  check_bool "extremes" true (Ivec.compare (v [ min_int ]) (v [ max_int ]) < 0);
  List.iter
    (fun (a, b) ->
      check_bool "compare = 0 iff equal" (Ivec.equal (v a) (v b))
        (Ivec.compare (v a) (v b) = 0))
    [ ([], []); ([ 1 ], [ 1 ]); ([ 1 ], [ 2 ]); ([ 1; 2 ], [ 1 ]); ([ 3; 3 ], [ 3; 3 ]) ]

let test_ivec_rank_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Ivec: rank mismatch") (fun () ->
      ignore (Ivec.add (Ivec.zero 2) (Ivec.zero 3)))

let test_ivec_minmax () =
  let a = Ivec.of_list [ 1; 5 ] and b = Ivec.of_list [ 3; 2 ] in
  Alcotest.(check (list int)) "max2" [ 3; 5 ] (Ivec.to_list (Ivec.max2 a b));
  Alcotest.(check (list int)) "min2" [ 1; 2 ] (Ivec.to_list (Ivec.min2 a b))

let test_ivec_to_string () =
  Alcotest.(check string) "pp" "(1, -2)" (Ivec.to_string (Ivec.of_list [ 1; -2 ]))

let ivec_qcheck =
  let gen =
    QCheck.Gen.(list_size (int_range 1 4) (int_range (-50) 50) >|= Ivec.of_list)
  in
  let arb = QCheck.make ~print:Ivec.to_string gen in
  [
    QCheck.Test.make ~name:"ivec add commutative" ~count:200
      (QCheck.pair arb arb) (fun (a, b) ->
        QCheck.assume (Ivec.dims a = Ivec.dims b);
        Ivec.equal (Ivec.add a b) (Ivec.add b a));
    QCheck.Test.make ~name:"ivec sub then add roundtrip" ~count:200
      (QCheck.pair arb arb) (fun (a, b) ->
        QCheck.assume (Ivec.dims a = Ivec.dims b);
        Ivec.equal (Ivec.add (Ivec.sub a b) b) a);
    QCheck.Test.make ~name:"ivec hash respects equality" ~count:200 arb
      (fun a -> Ivec.hash a = Ivec.hash (Ivec.of_list (Ivec.to_list a)));
    QCheck.Test.make ~name:"ivec compare total order antisymmetry" ~count:200
      (QCheck.pair arb arb) (fun (a, b) ->
        Ivec.compare a b = -Ivec.compare b a);
  ]

(* --------------------------------------------------------------- Stats *)

let test_stats_basic () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "median even" 2.5 (Stats.median xs);
  check_float "median odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  check_float "min" 1. (Stats.minimum xs);
  check_float "max" 4. (Stats.maximum xs);
  check_float "variance" (5. /. 3.) (Stats.variance xs);
  check_float "stddev" (sqrt (5. /. 3.)) (Stats.stddev xs)

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  check_float "p0" 10. (Stats.percentile 0. xs);
  check_float "p50" 30. (Stats.percentile 50. xs);
  check_float "p100" 50. (Stats.percentile 100. xs);
  check_float "p25" 20. (Stats.percentile 25. xs)

let test_stats_degenerate () =
  check_bool "mean empty is nan" true (Float.is_nan (Stats.mean [||]));
  check_float "variance singleton" 0. (Stats.variance [| 7. |]);
  check_float "percentile singleton" 7. (Stats.percentile 90. [| 7. |])

(* ------------------------------------------------------------- Tabular *)

let test_tabular_render () =
  let t = Tabular.create ~headers:[ "name"; "v" ] in
  Tabular.add_row t [ "a"; "1" ];
  Tabular.add_row t [ "bb"; "22" ];
  let s = Tabular.render t in
  check_bool "has header" true
    (String.length s > 0 && String.sub s 0 1 = "|");
  (* all lines same width *)
  let lines = String.split_on_char '\n' s in
  check_int "line count" 4 (List.length lines);
  let widths = List.map String.length lines in
  check_bool "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_tabular_mismatch () =
  let t = Tabular.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "row width"
    (Invalid_argument "Tabular.add_row: row width mismatch") (fun () ->
      Tabular.add_row t [ "only-one" ])

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_tabular_float_row () =
  let t = Tabular.create ~headers:[ "k"; "x"; "y" ] in
  Tabular.add_float_row t ~fmt:(Printf.sprintf "%.2f") "r" [ 1.; 2. ];
  let s = Tabular.render t in
  check_bool "contains 1.00" true (contains_substring s "1.00")

(* --------------------------------------------------------------- Hashc *)

let test_hashc () =
  check_bool "combine differs from inputs" true
    (Hashc.combine 1 2 <> 1 && Hashc.combine 1 2 <> 2);
  check_bool "order sensitive" true (Hashc.combine 1 2 <> Hashc.combine 2 1);
  check_int "list deterministic"
    (Hashc.list Hashc.int [ 1; 2; 3 ])
    (Hashc.list Hashc.int [ 1; 2; 3 ]);
  check_bool "list order sensitive" true
    (Hashc.list Hashc.int [ 1; 2 ] <> Hashc.list Hashc.int [ 2; 1 ])

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest ivec_qcheck in
  Alcotest.run "sf_util"
    [
      ( "ivec",
        [
          Alcotest.test_case "basic ops" `Quick test_ivec_basic;
          Alcotest.test_case "compare" `Quick test_ivec_compare;
          Alcotest.test_case "equal/compare by rank then value" `Quick
            test_ivec_equal_compare;
          Alcotest.test_case "rank mismatch" `Quick test_ivec_rank_mismatch;
          Alcotest.test_case "min/max" `Quick test_ivec_minmax;
          Alcotest.test_case "to_string" `Quick test_ivec_to_string;
        ] );
      ("ivec-props", qsuite);
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "degenerate" `Quick test_stats_degenerate;
        ] );
      ( "tabular",
        [
          Alcotest.test_case "render" `Quick test_tabular_render;
          Alcotest.test_case "mismatch" `Quick test_tabular_mismatch;
          Alcotest.test_case "float row" `Quick test_tabular_float_row;
        ] );
      ("hashc", [ Alcotest.test_case "combine" `Quick test_hashc ]);
    ]
