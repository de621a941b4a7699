(* The paper's flagship language example (Fig. 4): a variable-coefficient
   Gauss-Seidel red-black smoother with linear Dirichlet boundaries,
   written directly in the DSL and iterated to convergence on a 2-D
   Poisson problem.

     dune exec examples/redblack_poisson.exe

   This is the "complex smoothing" walk-through: colored strided domain
   unions, in-place updates, nested (variable-coefficient) components, and
   boundary stencils all in one StencilGroup — and the dependence analysis
   proving that each colour sweep is safe to run in parallel. *)

open Sf_util
open Sf_mesh
open Snowflake
open Sf_analysis
open Sf_backends

let n = 16
let shape = Ivec.of_list [ n + 2; n + 2 ]
let h = 1. /. float_of_int n
let zero = Ivec.zero 2

let off a v =
  let o = Ivec.zero 2 in
  o.(a) <- v;
  o

(* A_vc u = -∇·β∇u, flux form; beta_x/beta_y hold face coefficients. *)
let a_of u_grid =
  let b_lo a = Expr.read (if a = 0 then "beta_x" else "beta_y") zero in
  let b_hi a = Expr.read (if a = 0 then "beta_x" else "beta_y") (off a 1) in
  let u o = Expr.read u_grid o in
  let sum_b = Expr.sum [ b_lo 0; b_hi 0; b_lo 1; b_hi 1 ] in
  let flux =
    Expr.sum
      [
        Expr.(b_lo 0 *: u (off 0 (-1)));
        Expr.(b_hi 0 *: u (off 0 1));
        Expr.(b_lo 1 *: u (off 1 (-1)));
        Expr.(b_hi 1 *: u (off 1 1));
      ]
  in
  Expr.(param "inv_h2" *: ((sum_b *: u zero) -: flux))

(* lines 11-14 of the paper's Fig. 4: the red and black domains are unions
   of stride-2 rects; the update is in-place u += dinv (b - A u). *)
let color_sweep color =
  Stencil.make
    ~label:(if color = 0 then "red" else "black")
    ~output:"mesh"
    ~expr:
      Expr.(
        read "mesh" zero
        +: (read "dinv" zero *: (read "rhs" zero -: a_of "mesh")))
    ~domain:(Domain.colored 2 ~ghost:1 ~color ~ncolors:2)
    ()

(* lines 16-17: Dirichlet-zero edges, ghost <- -interior ("rotationally
   equivalent" for the other three). *)
let boundaries =
  let mk label lo hi o =
    Stencil.make ~label ~output:"mesh"
      ~expr:(Expr.neg (Expr.read "mesh" o))
      ~domain:(Domain.of_rect (Domain.rect ~lo ~hi ()))
      ()
  in
  [
    mk "top" [ 0; 1 ] [ 1; -1 ] (off 0 1);
    mk "bottom" [ -1; 1 ] [ 0; -1 ] (off 0 (-1));
    mk "left" [ 1; 0 ] [ -1; 1 ] (off 1 1);
    mk "right" [ 1; -1 ] [ -1; 0 ] (off 1 (-1));
  ]

let smooth_group =
  Group.make ~label:"gsrb2d"
    (boundaries @ [ color_sweep 0 ] @ boundaries @ [ color_sweep 1 ])

let () =
  (* What the analysis sees: each colour is point-parallel despite being
     in-place, red and black must be separated by a barrier, and the four
     edges share a wave. *)
  List.iter
    (fun c ->
      Printf.printf "colour %d point-parallel: %b\n" c
        (Dependence.point_parallel ~shape (color_sweep c)))
    [ 0; 1 ];
  Format.printf "waves: %a@." Schedule.pp_waves
    (Schedule.greedy_waves ~shape smooth_group);

  (* problem setup: beta = 1 + x y (smooth, positive), manufactured rhs *)
  let beta x y = 1. +. (x *. y) in
  let face_mesh axis =
    Mesh.create_init shape (fun p ->
        let c a =
          if a = axis then float_of_int (p.(a) - 1) *. h
          else (float_of_int p.(a) -. 0.5) *. h
        in
        beta (c 0) (c 1))
  in
  let beta_x = face_mesh 0 and beta_y = face_mesh 1 in
  let inv_h2 = 1. /. (h *. h) in
  let dinv =
    Mesh.create_init shape (fun p ->
        if p.(0) >= 1 && p.(0) <= n && p.(1) >= 1 && p.(1) <= n then
          1.
          /. (inv_h2
             *. (Mesh.get beta_x p
                +. Mesh.get beta_x [| p.(0) + 1; p.(1) |]
                +. Mesh.get beta_y p
                +. Mesh.get beta_y [| p.(0); p.(1) + 1 |]))
        else 0.)
  in
  let rhs =
    Mesh.create_init shape (fun p ->
        let x = (float_of_int p.(0) -. 0.5) *. h
        and y = (float_of_int p.(1) -. 0.5) *. h in
        sin (Float.pi *. x) *. sin (Float.pi *. y))
  in
  let grids =
    Grids.of_list
      [
        ("mesh", Mesh.create shape);
        ("rhs", rhs);
        ("beta_x", beta_x);
        ("beta_y", beta_y);
        ("dinv", dinv);
      ]
  in

  let kernel = Jit.compile Jit.Openmp ~shape smooth_group in
  let params = [ ("inv_h2", inv_h2) ] in

  (* iterate GSRB and watch the residual fall *)
  let residual () =
    let r = ref 0. in
    for i = 1 to n do
      for j = 1 to n do
        let p = [| i; j |] in
        let au =
          Expr.eval (a_of "mesh")
            ~read:(fun g o ->
              Mesh.get (Grids.find grids g) (Affine.apply o p))
            ~params:(fun _ -> inv_h2)
        in
        let d = Mesh.get rhs p -. au in
        r := !r +. (d *. d)
      done
    done;
    sqrt !r
  in
  let r0 = residual () in
  Printf.printf "initial residual: %.4e\n" r0;
  let total = 600 in
  let sweep = kernel.Kernel.bind ~params grids in
  for it = 1 to total do
    sweep ();
    if it mod 200 = 0 then
      Printf.printf "after %3d GSRB iterations: residual %.4e\n" it
        (residual ())
  done;
  assert (residual () < r0 /. 100.);
  print_endline "red-black Gauss-Seidel converged."
