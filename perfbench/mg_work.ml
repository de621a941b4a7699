(* Workload mg_vcycle_64: the paper's HPGMG solve, in process.  One op is
   one [Mg.vcycle] with [Mg.default_config]; [u] is reset to zero every
   ten ops, so each group of ten is the paper's ten-cycle solve. *)

open Common
open Sf_hpgmg
module Mesh = Sf_mesh.Mesh

let cycles_per_solve = 10
let reduction_limit = 1e-12
let baseline_tol = 1e-9

let make_solver ~n ~seed =
  let s = Mg.create ~n () in
  Problem.setup_variable ~seed (Mg.finest s);
  Mg.set_beta s Problem.beta_smooth;
  s

(* What a user pays before the first solve: cold JIT compiles, the
   problem set-up and the first run of every kernel (one V-cycle). *)
let setup ~n ~seed =
  Sf_backends.Jit.clear_cache ();
  Gc.full_major ();
  let t0 = now () in
  let s = make_solver ~n ~seed in
  Mg.vcycle s;
  Mesh.fill (Level.u (Mg.finest s)) 0.;
  (s, now () -. t0)

(* Whole ten-cycle solves until [seconds] of solve time have passed.  The
   residual check after each solve sits outside the timed wall.  Also
   returns the finest u after the first whole solve. *)
let run_phase s ~seconds =
  let u = Level.u (Mg.finest s) in
  Mesh.fill u 0.;
  let r0 = Mg.residual_norm s in
  let lats = ref [] and wall = ref 0. and solves = ref 0 in
  let failed = ref 0 and first_u = ref None in
  while !wall < seconds do
    let g0 = now () in
    Mesh.fill u 0.;
    let ok =
      try
        for _ = 1 to cycles_per_solve do
          Spans.span "op" (fun op ->
              let t0 = now () in
              Spans.span ~parent:op "Mg.vcycle" (fun _ -> Mg.vcycle s);
              lats := (now () -. t0) :: !lats)
        done;
        true
      with e ->
        Printf.eprintf "mg: V-cycle raised %s\n%!" (Printexc.to_string e);
        false
    in
    wall := !wall +. (now () -. g0);
    let r10 =
      if ok then Spans.span "check.residual_norm" (fun _ -> Mg.residual_norm s)
      else Float.nan
    in
    if not (r10 /. r0 <= reduction_limit) then begin
      Printf.eprintf "mg: solve %d reached |r10|/|r0| = %g (limit %g)\n%!"
        !solves (r10 /. r0) reduction_limit;
      failed := !failed + cycles_per_solve
    end;
    if !first_u = None && ok then first_u := Some (Mesh.copy u);
    incr solves
  done;
  ( {
      lat = Array.of_list (List.rev !lats);
      wall = !wall;
      attempted = !solves * cycles_per_solve;
      failed = !failed;
    },
    !first_u )

(* max |u_snowflake - u_hand| after ten cycles of the hand-written solver
   on the same problem. *)
let baseline_diff ~n ~seed u =
  let h = Baseline.create ~n () in
  Problem.setup_variable ~seed (Baseline.finest h);
  Baseline.set_beta h Problem.beta_smooth;
  for _ = 1 to cycles_per_solve do
    Baseline.vcycle h
  done;
  Mesh.max_abs_diff u (Level.u (Baseline.finest h))
