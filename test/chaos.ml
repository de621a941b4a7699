(* Chaos campaign: a 16^3 multigrid solve under every fault kind, each
   scenario asserting the supervised solver heals — final residual within
   2x of the fault-free norm.  Run by `dune build @resilience` (wired into
   the default runtest).

   Scenarios are deterministic: every clause is occurrence- or
   seed-triggered, so a failure here replays exactly. *)

open Sf_backends
open Sf_resilience
module Mg = Sf_hpgmg.Mg
module Problem = Sf_hpgmg.Problem
module Spmd = Sf_distributed.Spmd
module Trace = Sf_trace.Trace
module Metrics = Sf_trace.Metrics

let count name = Atomic.get (Metrics.counter name)

let cycles = 4
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      Printf.printf "  FAIL: %s\n%!" m)
    fmt

let solve ~backend ~workers () =
  let config =
    {
      Mg.default_config with
      backend;
      jit = Config.with_workers workers Config.default;
    }
  in
  let solver = Mg.create ~config ~n:16 () in
  Problem.setup_poisson (Mg.finest solver);
  let norms = Mg.solve_resilient ~cycles solver in
  (norms.(Array.length norms - 1), solver)

let reset () =
  Fault.disarm ();
  Guard.clear_mode ();
  Metrics.reset ();
  Jit.clear_cache ()

let scenario name ~spec ~backend ?(workers = 1) ~clean_norm check_extra =
  reset ();
  Fault.arm_exn spec;
  Printf.printf "chaos: %-28s %s\n%!" name spec;
  (match solve ~backend ~workers () with
  | exception e ->
      fail "%s: solver died: %s" name (Printexc.to_string e)
  | r, solver ->
      if not (Float.is_finite r) then fail "%s: non-finite residual" name
      else if r > 2. *. clean_norm then
        fail "%s: residual %.3e exceeds 2x clean norm %.3e" name r clean_norm
      else begin
        Printf.printf
          "  healed: residual %.3e (clean %.3e), %d injected, %d retries, \
           %d failovers, %d rollbacks, %d guard trips, final backend %s\n%!"
          r clean_norm (count "fault.injected")
          (count "supervisor.retries")
          (count "supervisor.failovers")
          (count "checkpoint.rollbacks")
          (count "guard.trips")
          (Jit.backend_name (Mg.active_backend solver));
        check_extra solver
      end);
  Fault.disarm ()

let require name cond = if not cond then fail "%s" name

let () =
  reset ();
  (* fault-free reference (same supervised code path, nothing armed) *)
  let clean_norm, _ = solve ~backend:Jit.Compiled ~workers:1 () in
  let clean_omp, _ = solve ~backend:Jit.Openmp ~workers:2 () in
  Printf.printf "chaos: clean norms %.3e (compiled) / %.3e (openmp)\n%!"
    clean_norm clean_omp;

  (* 1. persistent kernel raise on the primary backend: every openmp
     kernel invocation dies, the supervisor must fail the whole campaign
     over to the next backend in the chain *)
  scenario "kernel raise -> failover" ~spec:"kernel:raise@match=openmp"
    ~backend:Jit.Openmp ~workers:2 ~clean_norm:clean_omp (fun _ ->
      require "failover happened" (count "supervisor.failovers" > 0));

  (* 2. transient wave failures: heal inside the retry budget, no
     failover needed *)
  scenario "wave transient -> retry" ~spec:"wave:transient@n=2@count=2"
    ~backend:Jit.Openmp ~workers:2 ~clean_norm:clean_omp (fun _ ->
      require "retries happened" (count "supervisor.retries" > 0));

  (* 3. NaN poisoning of the finest solution mid-campaign: the divergence
     detector / guard must catch it and roll back to a checkpoint *)
  scenario "mg nan -> rollback" ~spec:"mg:nan@n=6@count=1"
    ~backend:Jit.Compiled ~clean_norm (fun _ ->
      require "rollback happened" (count "checkpoint.rollbacks" > 0));

  (* 4. Inf poisoning, same healing path *)
  scenario "mg inf -> rollback" ~spec:"mg:inf@n=9@count=1"
    ~backend:Jit.Compiled ~clean_norm (fun _ ->
      require "rollback happened" (count "checkpoint.rollbacks" > 0));

  (* 5. slow chunks: a delay is absorbed without any recovery action —
     the solve just takes longer *)
  scenario "chunk delay -> absorbed" ~spec:"chunk:delay=0.001@count=4"
    ~backend:Jit.Openmp ~workers:2 ~clean_norm:clean_omp (fun _ -> ());

  (* 6. rank death: kill one rank of a 2x2 SPMD smoother, recover it,
     keep sweeping *)
  reset ();
  Printf.printf "chaos: %-28s %s\n%!" "spmd rank death -> recover"
    "rank:kill@n=3@count=1";
  (try
     let t = Spmd.create ~rank_grid:[ 2; 2 ] ~local_n:8 in
     Spmd.fill_interior t ~base:"f" (fun x ->
         sin (10. *. x.(0)) +. cos (7. *. x.(1)));
     Spmd.init_dinv t;
     Fault.arm_exn "rank:kill@n=3@count=1";
     for _ = 1 to 6 do
       Spmd.run_group t (Spmd.gsrb_smooth_group t)
     done;
     Fault.disarm ();
     require "a rank died" (List.length (Spmd.dead_ranks t) = 1);
     require "recovered one rank" (Spmd.recover t = 1);
     for _ = 1 to 2 do
       Spmd.run_group t (Spmd.gsrb_smooth_group t)
     done;
     let u = Spmd.gather t ~base:"u" in
     let finite = ref true in
     for i = 0 to Sf_mesh.Mesh.size u - 1 do
       if not (Float.is_finite (Sf_mesh.Mesh.get_flat u i)) then finite := false
     done;
     require "solution finite after recovery" !finite;
     Printf.printf "  healed: 1 rank killed, recovered, solution finite\n%!"
   with e -> fail "spmd scenario died: %s" (Printexc.to_string e));

  (* 7. observability: under tracing, the healing decisions must be
     visible as counters (the --profile contract) *)
  reset ();
  Trace.clear ();
  Trace.set_enabled true;
  Fault.arm_exn "kernel:raise@match=openmp";
  ignore (solve ~backend:Jit.Openmp ~workers:2 ());
  Fault.disarm ();
  Trace.set_enabled false;
  Trace.clear ();
  require "traced fault.injected > 0" (count "fault.injected" > 0);
  require "traced supervisor.retries > 0" (count "supervisor.retries" > 0);
  require "traced supervisor.failovers > 0" (count "supervisor.failovers" > 0);
  reset ();

  if !failures > 0 then begin
    Printf.printf "chaos: %d scenario failure(s)\n" !failures;
    exit 1
  end;
  print_endline "chaos: all scenarios healed"
