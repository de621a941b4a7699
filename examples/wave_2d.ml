(* A 2-D wave equation with a leapfrog scheme — three meshes (previous,
   current, next) in one stencil group, the "multiple input and output
   meshes" feature of §II.

     dune exec examples/wave_2d.exe

   u_tt = c² Δu on the unit square, fixed (Dirichlet-zero) edges, central
   differences in time:
       next = 2·cur − prev + (c·dt/dx)² · Δcur
   followed by a rotation of the three time levels, all expressed as
   stencils (the rotation is two interior copies — cheap, and it keeps the
   whole timestep inside a single analysed StencilGroup). *)

open Sf_util
open Sf_mesh
open Snowflake
open Sf_backends

let n = 64
let shape = Ivec.of_list [ n + 2; n + 2 ]
let dx = 1. /. float_of_int n
let courant = 0.5 (* c·dt/dx *)
let zero = Ivec.zero 2

let off a v =
  let o = Ivec.zero 2 in
  o.(a) <- v;
  o

let laplacian grid =
  Expr.sum
    [
      Expr.read grid (off 0 (-1));
      Expr.read grid (off 0 1);
      Expr.read grid (off 1 (-1));
      Expr.read grid (off 1 1);
      Expr.(const (-4.) *: read grid zero);
    ]

let boundaries grid =
  let mk label lo hi o =
    Stencil.make ~label ~output:grid
      ~expr:(Expr.neg (Expr.read grid o))
      ~domain:(Domain.of_rect (Domain.rect ~lo ~hi ()))
      ()
  in
  [
    mk (grid ^ "_top") [ 0; 1 ] [ 1; -1 ] (off 0 1);
    mk (grid ^ "_bottom") [ -1; 1 ] [ 0; -1 ] (off 0 (-1));
    mk (grid ^ "_left") [ 1; 0 ] [ -1; 1 ] (off 1 1);
    mk (grid ^ "_right") [ 1; -1 ] [ -1; 0 ] (off 1 (-1));
  ]

let interior = Domain.interior 2 ~ghost:1

let step =
  Stencil.make ~label:"leapfrog" ~output:"next"
    ~expr:
      Expr.(
        (const 2. *: read "cur" zero)
        -: read "prev" zero
        +: (param "c2" *: laplacian "cur"))
    ~domain:interior ()

let copy ~out ~input =
  Stencil.make
    ~label:(input ^ "_to_" ^ out)
    ~output:out
    ~expr:(Expr.read input zero)
    ~domain:interior ()

let timestep_group =
  Group.make ~label:"wave_step"
    (boundaries "cur"
    @ [ step; copy ~out:"prev" ~input:"cur"; copy ~out:"cur" ~input:"next" ])

let () =
  let kernel = Jit.compile Jit.Openmp ~shape timestep_group in
  let gaussian p =
    let x = (float_of_int p.(0) -. 0.5) *. dx
    and y = (float_of_int p.(1) -. 0.5) *. dx in
    exp (-150. *. (((x -. 0.5) ** 2.) +. ((y -. 0.5) ** 2.)))
  in
  let cur = Mesh.create_init shape gaussian in
  let prev = Mesh.copy cur (* zero initial velocity *) in
  let grids =
    Grids.of_list
      [ ("prev", prev); ("cur", cur); ("next", Mesh.create shape) ]
  in
  let params = [ ("c2", courant *. courant) ] in

  (* approximate discrete energy (kinetic + potential sampled at the same
     time level): the leapfrog scheme keeps it bounded within a few
     percent — an unstable or wrongly-coded scheme diverges in tens of
     steps *)
  let energy () =
    let cur = Grids.find grids "cur" and prev = Grids.find grids "prev" in
    let kin = ref 0. and pot = ref 0. in
    for i = 1 to n do
      for j = 1 to n do
        let v = Mesh.get cur [| i; j |] -. Mesh.get prev [| i; j |] in
        kin := !kin +. (v *. v);
        let gx = Mesh.get cur [| i + 1; j |] -. Mesh.get cur [| i; j |] in
        let gy = Mesh.get cur [| i; j + 1 |] -. Mesh.get cur [| i; j |] in
        pot := !pot +. (courant *. courant *. ((gx *. gx) +. (gy *. gy)))
      done
    done;
    !kin +. !pot
  in
  (* one step to establish the first velocity, then track energy *)
  let step = kernel.Kernel.bind ~params grids in
  step ();
  let e0 = energy () in
  let drift = ref 0. in
  for s = 2 to 400 do
    step ();
    if s mod 100 = 0 then begin
      let e = energy () in
      drift := Float.max !drift (Float.abs ((e -. e0) /. e0));
      Printf.printf "step %3d: energy %.6e (drift %+.3f%%)\n" s e
        (100. *. ((e -. e0) /. e0))
    end
  done;
  Printf.printf "max energy drift over 400 steps: %.3f%%\n" (100. *. !drift);
  assert (!drift < 0.10);
  print_endline "wave propagated for 400 steps with bounded energy drift."
