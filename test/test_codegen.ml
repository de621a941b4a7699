open Sf_util
open Snowflake
open Sf_codegen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let iv = Ivec.of_list

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let count_occurrences haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub haystack i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* --------------------------------------------------------------- c_ast *)

let test_ast_folding () =
  check_bool "add 0" true (C_ast.add (C_ast.Int 0) (C_ast.Var "x") = C_ast.Var "x");
  check_bool "add ints" true (C_ast.add (C_ast.Int 2) (C_ast.Int 3) = C_ast.Int 5);
  check_bool "mul 0" true (C_ast.mul (C_ast.Int 0) (C_ast.Var "x") = C_ast.Int 0);
  check_bool "mul 1" true (C_ast.mul (C_ast.Var "x") (C_ast.Int 1) = C_ast.Var "x");
  check_bool "sum empty" true (C_ast.sum [] = C_ast.Int 0)

(* ---------------------------------------------------------------- c_pp *)

let test_pp_expr () =
  check_string "index" "a[(3 * i) + j]"
    (C_pp.expr_to_string
       C_ast.(
         Index
           ("a", Bin ("+", Bin ("*", Int 3, Var "i"), Var "j"))));
  check_string "negative literal parens" "x + (-1)"
    (C_pp.expr_to_string C_ast.(Bin ("+", Var "x", Int (-1))));
  check_string "float keeps point" "2.0"
    (C_pp.expr_to_string (C_ast.Float 2.));
  check_string "call" "get_global_id(0)"
    (C_pp.expr_to_string C_ast.(Call ("get_global_id", [ Int 0 ])))

let test_pp_for_loop () =
  let s =
    C_pp.stmt_to_string
      C_ast.(
        For
          {
            var = "i0";
            from_ = Int 1;
            below = Int 9;
            step = Int 2;
            body = [ Assign (Var "x", Int 0) ];
          })
  in
  check_bool "header" true
    (contains s "for (long i0 = 1; i0 < 9; i0 += 2) {");
  check_bool "body indented" true (contains s "  x = 0;")

let test_pp_func () =
  let f =
    C_ast.
      {
        qualifier = "";
        ret = "void";
        fname = "k";
        params = [ { ctype = "double *"; name = "u" } ];
        body = [ C_ast.Comment "hi" ];
      }
  in
  let s = C_pp.func_to_string f in
  check_bool "signature" true (contains s "void k(double * u) {");
  check_bool "comment" true (contains s "/* hi */")

(* --------------------------------------------------------------- lower *)

let test_sanitize () =
  check_string "dots" "beta_x" (Lower.sanitize "beta_x");
  check_string "weird" "a_b_c" (Lower.sanitize "a.b-c")

let test_flat_index () =
  let strides = iv [ 36; 6; 1 ] in
  let m = Affine.of_offset (iv [ 0; 1; -1 ]) in
  let point = [| C_ast.Var "i0"; C_ast.Var "i1"; C_ast.Var "i2" |] in
  let s = C_pp.expr_to_string (Lower.flat_index ~strides m point) in
  (* offsets fold into the coordinate expressions; no *1 or +0 noise *)
  check_bool "no mul by 1" true (not (contains s "* 1)"));
  check_bool "i0 unscaled inside" true (contains s "36 * i0");
  check_bool "i1 offset" true (contains s "i1 + 1")

let test_rect_loops_shape () =
  let s =
    Stencil.make ~label:"lap" ~output:"out"
      ~expr:Expr.(read "u" (iv [ -1 ]) +: read "u" (iv [ 1 ]))
      ~domain:(Domain.interior 1 ~ghost:1)
      ()
  in
  let rect = Domain.resolve_rect ~shape:(iv [ 10 ]) (List.hd s.Stencil.domain) in
  let stmts = Lower.rect_loops ~grid_strides:(fun _ -> iv [ 1 ]) s rect in
  let text = String.concat "\n" (List.map C_pp.stmt_to_string stmts) in
  check_bool "loop bounds" true (contains text "for (long i0 = 1; i0 < 9; i0 += 1)");
  check_bool "reads both taps" true
    (contains text "u[i0 + (-1)]" && contains text "u[i0 + 1]");
  check_bool "writes out" true (contains text "out[i0] =")

(* ------------------------------------------------------------ omp_emit *)

let gsrb_2d () =
  let w =
    Weights.of_nested
      (Weights.A
         [
           A [ W 0.; W 0.25; W 0. ];
           A [ W 0.25; W 0.; W 0.25 ];
           A [ W 0.; W 0.25; W 0. ];
         ])
  in
  let mk color =
    Stencil.make
      ~label:(if color = 0 then "red" else "black")
      ~output:"mesh"
      ~expr:(Component.to_expr ~grid:"mesh" w)
      ~domain:(Domain.colored 2 ~ghost:1 ~color ~ncolors:2)
      ()
  in
  Group.make ~label:"gsrb2d" [ mk 0; mk 1 ]

let test_omp_emit_structure () =
  let shape = iv [ 10; 10 ] in
  let src = Omp_emit.emit ~shape ~grid_shapes:(fun _ -> shape) (gsrb_2d ()) in
  check_bool "include" true (contains src "#include <omp.h>");
  check_bool "parallel region" true (contains src "#pragma omp parallel");
  check_bool "tasks" true (contains src "#pragma omp task");
  (* two waves (red then black) => two taskwaits *)
  check_int "barriers" 2 (count_occurrences src "#pragma omp taskwait");
  check_bool "function named after group" true
    (contains src "void gsrb2d(double * restrict mesh)");
  (* red is scheduled before black *)
  let index_of sub =
    let nn = String.length sub in
    let rec go i =
      if i + nn > String.length src then -1
      else if String.sub src i nn = sub then i
      else go (i + 1)
    in
    go 0
  in
  let ired = index_of "stencil red" and iblack = index_of "stencil black" in
  check_bool "red before black" true (ired >= 0 && iblack > ired)

let test_omp_emit_scalar_params () =
  let s =
    Stencil.make ~label:"scaled" ~output:"out"
      ~expr:Expr.(read "u" (iv [ 0 ]) *: param "lambda")
      ~domain:(Domain.interior 1 ~ghost:0)
      ()
  in
  let shape = iv [ 8 ] in
  let src =
    Omp_emit.emit ~shape ~grid_shapes:(fun _ -> shape)
      (Group.make ~label:"g" [ s ])
  in
  check_bool "param in signature" true (contains src "const double lambda");
  check_bool "param used" true (contains src "* lambda")

let test_omp_emit_sequential_fallback () =
  (* a full-domain in-place Gauss-Seidel cannot be tasked per tile *)
  let s =
    Stencil.make ~label:"gs" ~output:"u"
      ~expr:Expr.(read "u" (iv [ -1 ]) +: read "u" (iv [ 1 ]))
      ~domain:(Domain.interior 1 ~ghost:1)
      ()
  in
  let shape = iv [ 32 ] in
  let src =
    Omp_emit.emit ~shape ~grid_shapes:(fun _ -> shape)
      (Group.make ~label:"g" [ s ])
  in
  check_bool "flagged sequential" true
    (contains src "sequential: loop-carried dependence")

(* ------------------------------------------------------------ ocl_emit *)

let test_ocl_emit_structure () =
  let shape = iv [ 10; 10 ] in
  let src = Ocl_emit.emit ~shape ~grid_shapes:(fun _ -> shape) (gsrb_2d ()) in
  check_bool "fp64 pragma" true (contains src "cl_khr_fp64");
  (* 2 colours x 2 rects each = 4 kernels *)
  check_int "kernel count" 4 (count_occurrences src "__kernel void");
  check_bool "global ids" true (contains src "get_global_id(0)");
  check_bool "guard" true (contains src "if (");
  check_bool "global qualifier" true (contains src "__global double");
  check_bool "host driver" true (contains src "clEnqueueNDRangeKernel");
  check_int "enqueues" 4 (count_occurrences src "clEnqueueNDRangeKernel")

let test_ocl_rank_limit () =
  let s =
    Stencil.make ~label:"r4" ~output:"o"
      ~expr:(Expr.read "u" (iv [ 0; 0; 0; 0 ]))
      ~domain:(Domain.interior 4 ~ghost:0)
      ()
  in
  let shape = iv [ 4; 4; 4; 4 ] in
  try
    ignore
      (Ocl_emit.emit ~shape ~grid_shapes:(fun _ -> shape)
         (Group.make ~label:"g" [ s ]));
    Alcotest.fail "rank 4 accepted"
  with Invalid_argument _ -> ()

let test_emitted_index_arithmetic () =
  (* the 2-D red rect at shape 8x8 must index mesh[8*i0 + i1] *)
  let shape = iv [ 8; 8 ] in
  let src = Omp_emit.emit ~shape ~grid_shapes:(fun _ -> shape) (gsrb_2d ()) in
  check_bool "row stride literal" true (contains src "mesh[(8 * i0) + i1]");
  check_bool "neighbour index" true (contains src "mesh[(8 * (i0 + (-1))) + i1]")

(* ------------------------------------------------------------ seq_emit *)

let test_seq_emit () =
  let shape = iv [ 10; 10 ] in
  let src = Seq_emit.emit ~shape ~grid_shapes:(fun _ -> shape) (gsrb_2d ()) in
  check_bool "no pragmas" true (not (contains src "#pragma omp"));
  check_bool "one function" true (contains src "void gsrb2d(");
  check_bool "both stencils" true
    (contains src "stencil red" && contains src "stencil black");
  check_int "four loop nests (2 colours x 2 rects)" 4
    (count_occurrences src "for (long i0");
  check_bool "strided loops" true (contains src "i0 += 2")

(* ----------------------------------------------------------- cuda_emit *)

let test_cuda_emit () =
  let shape = iv [ 10; 10 ] in
  let src = Cuda_emit.emit ~shape ~grid_shapes:(fun _ -> shape) (gsrb_2d ()) in
  check_int "kernel count" 4 (count_occurrences src "__global__ void");
  check_bool "thread mapping" true
    (contains src "blockIdx.x * blockDim.x) + threadIdx.x");
  check_bool "outer axis on y" true (contains src "threadIdx.y");
  check_bool "guard" true (contains src "if (");
  check_bool "launch sketch" true (contains src "<<<");
  check_bool "runtime header" true (contains src "cuda_runtime.h")

let test_cuda_rank_limit () =
  let s =
    Stencil.make ~label:"r4" ~output:"o"
      ~expr:(Expr.read "u" (iv [ 0; 0; 0; 0 ]))
      ~domain:(Domain.interior 4 ~ghost:0)
      ()
  in
  let shape = iv [ 4; 4; 4; 4 ] in
  try
    ignore
      (Cuda_emit.emit ~shape ~grid_shapes:(fun _ -> shape)
         (Group.make ~label:"g" [ s ]));
    Alcotest.fail "rank 4 accepted"
  with Invalid_argument _ -> ()

(* ---------------------------------------------- emitters print the plan *)

let gs_group () =
  Group.make ~label:"g"
    [
      Stencil.make ~label:"gs" ~output:"u"
        ~expr:Expr.(read "u" (iv [ -1 ]) +: read "u" (iv [ 1 ]))
        ~domain:(Domain.interior 1 ~ghost:1)
        ();
    ]

(* the executed OpenCL plan runs an in-place Gauss-Seidel as one
   sequential task, so its kernel must be a single work-item *)
let test_gpu_inplace_single_item () =
  let shape = iv [ 32 ] in
  let grid_shapes _ = shape in
  let ocl = Ocl_emit.emit ~shape ~grid_shapes (gs_group ()) in
  check_int "one kernel" 1 (count_occurrences ocl "__kernel void");
  check_bool "global size 1" true (contains ocl "/*global=*/{1}");
  check_bool "no work-item ids" false (contains ocl "get_global_id");
  check_bool "loops the rect" true (contains ocl "for (long i0 = 1; i0 < 31");
  let cuda = Cuda_emit.emit ~shape ~grid_shapes (gs_group ()) in
  check_int "one cuda kernel" 1 (count_occurrences cuda "__global__ void");
  check_bool "<<<1, 1>>>" true (contains cuda "<<<1, 1>>>")

(* a two-stencil pointwise chain: fusible under Config.fusion *)
let chain_group () =
  let mk label output expr =
    Stencil.make ~label ~output ~expr ~domain:(Domain.interior 1 ~ghost:1) ()
  in
  Group.make ~label:"chain"
    [
      mk "scale" "tmp" Expr.(const 2. *: read "u" (iv [ 0 ]));
      mk "shift" "out" Expr.(read "tmp" (iv [ 0 ]) +: read "u" (iv [ 0 ]));
    ]

let fused_config =
  { Sf_backends.Config.default with fusion = true; tile = Some [ 16 ] }

let test_omp_tasks_match_plan () =
  let case name config shape group ~tasks ~waves =
    let plan =
      Sf_backends.Jit.lower ~config Sf_backends.Jit.Openmp ~shape group
    in
    let plan_tasks =
      List.fold_left
        (fun n (w : Sf_backends.Plan.wave) -> n + Array.length w.tasks)
        0 plan.Sf_backends.Plan.waves
    in
    let src =
      Omp_emit.emit ~config ~shape ~grid_shapes:(fun _ -> shape) group
    in
    check_int (name ^ ": omp tasks = plan tasks") plan_tasks
      (count_occurrences src "#pragma omp task\n");
    check_int (name ^ ": taskwaits = plan waves")
      (List.length plan.Sf_backends.Plan.waves)
      (count_occurrences src "#pragma omp taskwait");
    Option.iter (check_int (name ^ ": tasks") plan_tasks) tasks;
    Option.iter (check_int (name ^ ": waves") (List.length plan.waves)) waves
  in
  case "gsrb2d" Sf_backends.Config.default (iv [ 10; 10 ]) (gsrb_2d ())
    ~tasks:None ~waves:(Some 2);
  case "fused chain" fused_config (iv [ 64 ]) (chain_group ()) ~tasks:(Some 4)
    ~waves:(Some 1)

(* a fused OpenCL wave is one kernel running both members per point *)
let test_gpu_fused_wave () =
  let shape = iv [ 64 ] in
  let src =
    Ocl_emit.emit ~config:fused_config ~shape ~grid_shapes:(fun _ -> shape)
      (chain_group ())
  in
  check_int "one kernel" 1 (count_occurrences src "__kernel void");
  check_bool "both members" true
    (contains src "tmp[i0] =" && contains src "out[i0] =")

let expect_clash name ~needles f =
  match f () with
  | _ -> Alcotest.failf "%s: emitted despite the clash" name
  | exception Invalid_argument msg ->
      List.iter
        (fun n ->
          check_bool (Printf.sprintf "%s names %s" name n) true (contains msg n))
        needles

let test_names_injective () =
  let s =
    Stencil.make ~label:"s" ~output:"a_b"
      ~expr:(Expr.read "a.b" (iv [ 0 ]))
      ~domain:(Domain.interior 1 ~ghost:0)
      ()
  in
  let shape = iv [ 8 ] in
  expect_clash "a.b/a_b" ~needles:[ "\"a.b\""; "\"a_b\"" ] (fun () ->
      Seq_emit.emit ~shape ~grid_shapes:(fun _ -> shape)
        (Group.make ~label:"g" [ s ]))

let test_names_loop_counter () =
  let s =
    Stencil.make ~label:"s" ~output:"out"
      ~expr:Expr.(read "u" (iv [ 0 ]) *: param "i0")
      ~domain:(Domain.interior 1 ~ghost:0)
      ()
  in
  let shape = iv [ 8 ] in
  expect_clash "param i0" ~needles:[ "parameter \"i0\""; "loop counter i0" ]
    (fun () ->
      Omp_emit.emit ~shape ~grid_shapes:(fun _ -> shape)
        (Group.make ~label:"g" [ s ]))

let test_names_gpu_ids () =
  let s =
    Stencil.make ~label:"s" ~output:"out"
      ~expr:(Expr.read "g0" (iv [ 0 ]))
      ~domain:(Domain.interior 1 ~ghost:0)
      ()
  in
  let shape = iv [ 8 ] in
  List.iter
    (fun (name, emit) ->
      expect_clash name ~needles:[ "grid \"g0\""; "work-item id g0" ] (fun () ->
          emit ~shape
            ~grid_shapes:(fun _ -> shape)
            (Group.make ~label:"g" [ s ])))
    [
      ("opencl", Ocl_emit.emit ?config:None);
      ("cuda", Cuda_emit.emit ?config:None);
    ]

(* nvcc compiles .cu as C++, which has no [restrict] *)
let test_cuda_restrict () =
  let shape = iv [ 10; 10 ] in
  let src = Cuda_emit.emit ~shape ~grid_shapes:(fun _ -> shape) (gsrb_2d ()) in
  check_int "every kernel's grid is __restrict__" 4
    (count_occurrences src "double * __restrict__ mesh");
  check_bool "no C99 restrict" false (contains src "* restrict ")

(* every emitter handles the full HPGMG smoother without raising, and the
   outputs stay consistent in their read taps *)
let test_emitters_on_hpgmg_gsrb () =
  let shape = iv [ 10; 10; 10 ] in
  let grid_shapes _ = shape in
  let group = Sf_hpgmg.Operators.gsrb_smooth in
  let seq = Seq_emit.emit ~shape ~grid_shapes group in
  let omp = Omp_emit.emit ~shape ~grid_shapes group in
  let ocl = Ocl_emit.emit ~shape ~grid_shapes group in
  let cuda = Cuda_emit.emit ~shape ~grid_shapes group in
  List.iter
    (fun (name, src) ->
      check_bool (name ^ " mentions beta_x") true (contains src "beta_x");
      check_bool (name ^ " mentions dinv") true (contains src "dinv");
      check_bool (name ^ " scalar param") true (contains src "inv_h2"))
    [ ("seq", seq); ("omp", omp); ("ocl", ocl); ("cuda", cuda) ]

let () =
  Alcotest.run "sf_codegen"
    [
      ("c_ast", [ Alcotest.test_case "folding" `Quick test_ast_folding ]);
      ( "c_pp",
        [
          Alcotest.test_case "expr" `Quick test_pp_expr;
          Alcotest.test_case "for loop" `Quick test_pp_for_loop;
          Alcotest.test_case "func" `Quick test_pp_func;
        ] );
      ( "lower",
        [
          Alcotest.test_case "sanitize" `Quick test_sanitize;
          Alcotest.test_case "flat index" `Quick test_flat_index;
          Alcotest.test_case "rect loops" `Quick test_rect_loops_shape;
        ] );
      ( "omp",
        [
          Alcotest.test_case "structure" `Quick test_omp_emit_structure;
          Alcotest.test_case "scalar params" `Quick
            test_omp_emit_scalar_params;
          Alcotest.test_case "sequential fallback" `Quick
            test_omp_emit_sequential_fallback;
          Alcotest.test_case "index arithmetic" `Quick
            test_emitted_index_arithmetic;
        ] );
      ( "ocl",
        [
          Alcotest.test_case "structure" `Quick test_ocl_emit_structure;
          Alcotest.test_case "rank limit" `Quick test_ocl_rank_limit;
        ] );
      ("seq", [ Alcotest.test_case "structure" `Quick test_seq_emit ]);
      ( "cuda",
        [
          Alcotest.test_case "structure" `Quick test_cuda_emit;
          Alcotest.test_case "rank limit" `Quick test_cuda_rank_limit;
          Alcotest.test_case "restrict spelling" `Quick test_cuda_restrict;
        ] );
      ( "plan",
        [
          Alcotest.test_case "gpu in-place single work-item" `Quick
            test_gpu_inplace_single_item;
          Alcotest.test_case "omp tasks match plan" `Quick
            test_omp_tasks_match_plan;
          Alcotest.test_case "gpu fused wave" `Quick test_gpu_fused_wave;
        ] );
      ( "names",
        [
          Alcotest.test_case "sanitize injective" `Quick test_names_injective;
          Alcotest.test_case "loop counter" `Quick test_names_loop_counter;
          Alcotest.test_case "gpu ids" `Quick test_names_gpu_ids;
        ] );
      ( "cross-emitter",
        [
          Alcotest.test_case "hpgmg smoother" `Quick
            test_emitters_on_hpgmg_gsrb;
        ] );
    ]
