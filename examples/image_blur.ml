(* An image-processing pipeline — the domain Halide targets — written in
   Snowflake, to make the paper's §VI contrast concrete: a separable blur
   expressed as two stencils that the JIT can legally *fuse* (the paper's
   future-work optimisation, implemented in this repository), plus an
   unsharp-mask sharpening step.

     dune exec examples/image_blur.exe

   Pipeline: blur_x (1x3) → blur_y (3x1) → sharpen = img + k·(img − blur).
   The producer-inlining pass (Config.inline_producers; Config.fusion is
   the other fusion, which keeps every stencil and shares tiles) collapses
   producer/consumer pairs when the consumer reads the producer only at
   offset zero — here blur_y reads blur_x at offsets, so the *first* pair must NOT fuse (the analysis refuses), while
   the final point-wise sharpen fuses with nothing upstream for the same
   reason.  We check the optimiser's decisions and that results match the
   unfused pipeline exactly. *)

open Sf_util
open Sf_mesh
open Snowflake
open Sf_backends

let shape = Ivec.of_list [ 66; 66 ]
let zero = Ivec.zero 2

let off a v =
  let o = Ivec.zero 2 in
  o.(a) <- v;
  o

let interior = Domain.interior 2 ~ghost:1

let blur_x =
  Stencil.make ~label:"blur_x" ~output:"bx"
    ~expr:
      Expr.(
        const (1. /. 3.)
        *: (read "img" (off 1 (-1)) +: read "img" zero +: read "img" (off 1 1)))
    ~domain:interior ()

let blur_y =
  Stencil.make ~label:"blur_y" ~output:"blur"
    ~expr:
      Expr.(
        const (1. /. 3.)
        *: (read "bx" (off 0 (-1)) +: read "bx" zero +: read "bx" (off 0 1)))
    ~domain:(Domain.interior 2 ~ghost:2)
    ()

(* point-wise: reads blur at offset zero — fusable with blur_y *)
let sharpen =
  Stencil.make ~label:"sharpen" ~output:"out"
    ~expr:
      Expr.(
        read "img" zero
        +: (param "amount" *: (read "img" zero -: read "blur" zero)))
    ~domain:(Domain.interior 2 ~ghost:2)
    ()

let pipeline = Group.make ~label:"unsharp" [ blur_x; blur_y; sharpen ]

let () =
  (* what the analysis decides about fusion legality *)
  let open Sf_analysis in
  Printf.printf "blur_x -> blur_y fusable: %b (reads at offsets: refused)\n"
    (Schedule.can_fuse ~shape blur_x blur_y);
  Printf.printf "blur_y -> sharpen fusable: %b (offset-zero read: allowed)\n"
    (Schedule.can_fuse ~shape blur_y sharpen);

  let test_image =
    Mesh.create_init shape (fun p ->
        (* checkerboard + gradient: plenty of high-frequency content *)
        let base = float_of_int ((p.(0) + p.(1)) mod 2) in
        base +. (0.01 *. float_of_int p.(0)))
  in
  let run config =
    let grids =
      Grids.of_list
        [
          ("img", Mesh.copy test_image);
          ("bx", Mesh.create shape);
          ("blur", Mesh.create shape);
          ("out", Mesh.create shape);
        ]
    in
    let kernel = Jit.compile ~config Jit.Compiled ~shape pipeline in
    kernel.Kernel.run ~params:[ ("amount", 1.5) ] grids;
    grids
  in
  let plain = run Config.default in
  let fused =
    run
      { Config.default with inline_producers = true; dce = Config.Dce [ "out" ] }
  in
  let d =
    Mesh.max_abs_diff (Grids.find plain "out") (Grids.find fused "out")
  in
  Printf.printf "fused vs unfused max diff: %.2e\n" d;
  assert (d < 1e-12);

  (* sanity: blurring smooths the checkerboard, sharpening restores
     contrast *)
  let out = Grids.find plain "out" in
  let blur = Grids.find plain "blur" in
  let contrast m =
    Float.abs (Mesh.get m [| 32; 32 |] -. Mesh.get m [| 32; 33 |])
  in
  Printf.printf "checkerboard contrast: input 1.00, blurred %.2f, sharpened %.2f\n"
    (contrast blur) (contrast out);
  assert (contrast blur < 0.5);
  assert (contrast out > contrast blur);
  print_endline "unsharp-mask pipeline OK (fusion preserved results)."
