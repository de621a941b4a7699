(* Distributed-memory smoothing, simulated — the paper's §VII future work
   ("backends to target distributed-memory systems via MPI or UPC++").

     dune exec examples/spmd_demo.exe

   The key idea this demo shows: in Snowflake, *halo exchange is just
   another stencil* — a copy between two ranks' meshes with a large
   constant offset — so the same Diophantine analysis that schedules
   boundary conditions schedules communication.  Watch the wave structure:
   all 16 communication stencils (halo copies + physical Dirichlet faces)
   of a 2x2 rank decomposition land in ONE wave, then all four ranks'
   red sweeps run concurrently, and so on. *)

open Sf_analysis
open Sf_backends
open Sf_distributed

let () =
  let t = Spmd.create ~rank_grid:[ 2; 2 ] ~local_n:16 in
  let group = Spmd.gsrb_smooth_group t in
  Printf.printf "2x2 ranks, 16^2 cells each => %d stencils in the smooth group\n"
    (Snowflake.Group.length group);
  let waves = Schedule.greedy_waves ~shape:t.Spmd.shape group in
  Printf.printf "scheduled as %d waves of sizes %s\n" (List.length waves)
    (String.concat ", "
       (List.map (fun w -> string_of_int (List.length w)) waves));
  List.iteri
    (fun i w ->
      let labels =
        List.filteri (fun j _ -> j < 3) w
        |> List.map (fun idx ->
               (List.nth (Snowflake.Group.stencils group) idx)
                 .Snowflake.Stencil.label)
      in
      Printf.printf "  wave %d starts with: %s, ...\n" i
        (String.concat "; " labels))
    waves;

  (* solve a Poisson problem by distributed relaxation and report the
     residual trajectory *)
  Spmd.fill_interior t ~base:"f" (fun c -> Sf_hpgmg.Nd.rhs_sine ~dims:2 c);
  Spmd.set_beta t (fun _ -> 1.);
  let smooth =
    Jit.compile
      ~config:(Config.with_workers 2 Config.default)
      Jit.Openmp ~shape:t.Spmd.shape group
  in
  let residual = Jit.compile Jit.Compiled ~shape:t.Spmd.shape (Spmd.residual_group t) in
  let params = Spmd.params t in
  let residual = residual.Kernel.bind ~params t.Spmd.grids in
  let smooth = smooth.Kernel.bind ~params t.Spmd.grids in
  let res_norm () =
    residual ();
    Sf_mesh.Mesh.norm_l2 (Spmd.gather t ~base:"res")
  in
  Printf.printf "initial residual: %.3e\n" (res_norm ());
  for sweep = 1 to 600 do
    smooth ();
    if sweep mod 200 = 0 then
      Printf.printf "after %3d sweeps: residual %.3e\n" sweep (res_norm ())
  done;
  let u = Spmd.gather t ~base:"u" in
  let err = ref 0. in
  let h = 1. /. 32. in
  for i = 1 to 32 do
    for j = 1 to 32 do
      let x = (float_of_int i -. 0.5) *. h
      and y = (float_of_int j -. 0.5) *. h in
      err :=
        Float.max !err
          (Float.abs
             (Sf_mesh.Mesh.get u [| i; j |]
             -. Sf_hpgmg.Nd.exact_sine [| x; y |]))
    done
  done;
  Printf.printf "error vs exact solution: %.3e (O(h^2) ~ %.3e)\n" !err
    (h *. h);
  assert (!err < 5. *. h *. h);
  print_endline "distributed relaxation solved the global problem."
