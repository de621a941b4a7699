(* Variable-coefficient heat flow on a 2-D plate (§II.A item 4 of the
   paper: "applications such as heat flow where the medium may be
   heterogeneous, requiring the stencil to read values such as flow
   coefficients from a separate array").

     dune exec examples/heat_equation.exe

   We integrate ∂u/∂t = ∇·(κ∇u) with explicit Euler steps on a plate made
   of two materials (a poorly conducting inclusion in the middle), with a
   hot left edge held at 1 (Dirichlet via ghost reflection around the
   boundary value) and the flux stencil built from nested components, so
   the conductivity is read at the face each flux term crosses. *)

open Sf_util
open Sf_mesh
open Snowflake
open Sf_backends

let nx = 34 (* interior 32 + 2 ghost *)
let shape = Ivec.of_list [ nx; nx ]
let dx = 1. /. float_of_int (nx - 2)

let zero = Ivec.zero 2
let off a v =
  let o = Ivec.zero 2 in
  o.(a) <- v;
  o

(* kappa_x/kappa_y hold face conductivities: kappa_a at cell i is the face
   between cells i-1 and i along axis a (same convention as HPGMG's
   betas). *)
let flux_divergence =
  let k_lo a = Expr.read (if a = 0 then "kappa_x" else "kappa_y") zero in
  let k_hi a = Expr.read (if a = 0 then "kappa_x" else "kappa_y") (off a 1) in
  let u o = Expr.read "u" o in
  let terms =
    List.concat_map
      (fun a ->
        Expr.
          [
            k_hi a *: (u (off a 1) -: u zero);
            neg (k_lo a *: (u zero -: u (off a (-1))));
          ])
      [ 0; 1 ]
  in
  Expr.(sum terms *: param "dt_over_dx2")

(* Explicit Euler must read a consistent time level: write the new field
   out-of-place, then copy back.  (An in-place version would be a
   Gauss–Seidel-flavoured iteration — expressible too, but not what the
   physics asks for, and the analysis would refuse to parallelise it.) *)
let step_stencil =
  Stencil.make ~label:"heat_step" ~output:"u_next"
    ~expr:Expr.(read "u" zero +: flux_divergence)
    ~domain:(Domain.interior 2 ~ghost:1)
    ()

let copy_back =
  Stencil.make ~label:"copy_back" ~output:"u"
    ~expr:(Expr.read "u_next" zero)
    ~domain:(Domain.interior 2 ~ghost:1)
    ()

(* Boundary stencils: left edge held hot (ghost = 2 - interior makes the
   face value 1), the other three edges insulated (ghost = interior, zero
   flux). *)
let boundaries =
  let mk label lo hi expr =
    Stencil.make ~label ~output:"u" ~expr
      ~domain:(Domain.of_rect (Domain.rect ~lo ~hi ()))
      ()
  in
  [
    mk "hot_left" [ 1; 0 ] [ -1; 1 ]
      Expr.(const 2. -: read "u" (off 1 1));
    mk "cold_right" [ 1; -1 ] [ -1; 0 ] Expr.(neg (read "u" (off 1 (-1))));
    mk "insulated_top" [ 0; 1 ] [ 1; -1 ] (Expr.read "u" (off 0 1));
    mk "insulated_bottom" [ -1; 1 ] [ 0; -1 ] (Expr.read "u" (off 0 (-1)));
  ]

let () =
  let group =
    Group.make ~label:"heat" (boundaries @ [ step_stencil; copy_back ])
  in

  (* The analysis proves the four edge stencils independent, so they form
     one wave; the update waits for all of them. *)
  let waves = Sf_analysis.Schedule.greedy_waves ~shape group in
  Format.printf "schedule: %a@." Sf_analysis.Schedule.pp_waves waves;

  let kernel = Jit.compile Jit.Openmp ~shape group in

  (* two-material plate: a low-conductivity square inclusion *)
  let kappa x y =
    if abs_float (x -. 0.5) < 0.2 && abs_float (y -. 0.5) < 0.2 then 0.05
    else 1.
  in
  let face_mesh axis =
    Mesh.create_init shape (fun p ->
        let c a =
          if a = axis then float_of_int (p.(a) - 1) *. dx
          else (float_of_int p.(a) -. 0.5) *. dx
        in
        kappa (c 0) (c 1))
  in
  let grids =
    Grids.of_list
      [
        ("u", Mesh.create shape);
        ("u_next", Mesh.create shape);
        ("kappa_x", face_mesh 0);
        ("kappa_y", face_mesh 1);
      ]
  in

  let dt = 0.2 *. dx *. dx (* stable for explicit Euler *) in
  let params = [ ("dt_over_dx2", dt /. (dx *. dx)) ] in
  let steps = 2000 in
  (* bind once: the instance runs the kernel on these meshes, no lookup *)
  let step = kernel.Kernel.bind ~params grids in
  for s = 1 to steps do
    step ();
    if s mod 500 = 0 then begin
      let u = Grids.find grids "u" in
      let mid = nx / 2 in
      Printf.printf "t=%.3f  centre row temperatures:" (float_of_int s *. dt);
      List.iter
        (fun j -> Printf.printf " %.3f" (Mesh.get u [| mid; j |]))
        [ 2; 8; 14; 20; 26; 32 ];
      print_newline ()
    end
  done;

  (* steady state should be monotone from hot (1) to cold (0) along the
     midline, with a visible kink across the inclusion *)
  let u = Grids.find grids "u" in
  let mid = nx / 2 in
  let left = Mesh.get u [| mid; 2 |] and right = Mesh.get u [| mid; 32 |] in
  assert (left > right);
  assert (left > 0.5 && right < 0.5);
  Printf.printf
    "steady-ish state: T=%.3f near hot edge, %.3f near cold edge — heat \
     flowed through the heterogeneous plate.\n"
    left right
