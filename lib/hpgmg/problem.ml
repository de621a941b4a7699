open Sf_mesh

let pi = 4. *. atan 1.
let exact_sine x y z = Nd.exact_sine [| x; y; z |]
let rhs_sine x y z = Nd.rhs_sine ~dims:3 [| x; y; z |]

let beta_smooth x y z =
  1. +. (0.45 *. sin (2. *. pi *. x) *. sin (2. *. pi *. y) *. sin (2. *. pi *. z))

let setup_poisson (level : Level.t) =
  Level.set_beta level (fun _ _ _ -> 1.);
  Mesh.fill (Level.u level) 0.;
  Mesh.fill (Level.f level) 0.;
  Level.fill_interior (Level.f level) level rhs_sine

let setup_variable ~seed (level : Level.t) =
  Level.set_beta level beta_smooth;
  Mesh.fill (Level.u level) 0.;
  let st = Random.State.make [| seed |] in
  Mesh.fill (Level.f level) 0.;
  Level.fill_interior (Level.f level) level (fun _ _ _ ->
      Random.State.float st 2. -. 1.)
