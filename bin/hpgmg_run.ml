(* CLI driver for the Snowflake-built HPGMG solver.

   Mirrors the shape of the HPGMG benchmark driver: choose a problem size,
   a backend, a number of V-cycles, and get per-cycle residuals plus the
   DOF/s figure of merit. *)

open Cmdliner
open Sf_backends
open Sf_hpgmg
module Trace = Sf_trace.Trace

(* --pipeline R: a self-contained demo of the certified streaming
   distribution.  Decomposes a 1-D domain over R simulated ranks, certifies
   the GSRB exchange/compute group as a streaming pipeline (SF030..SF034),
   prints the certificate, then runs the pipelined executor and checks the
   gathered result bitwise against the bulk-synchronous Spmd path. *)
let run_pipeline_demo ~ranks ~n ~cycles ~workers =
  let module Spmd = Sf_distributed.Spmd in
  let module Pipeline = Sf_distributed.Pipeline in
  if ranks < 2 then begin
    Printf.eprintf "hpgmg_run: --pipeline needs at least 2 ranks\n";
    exit 2
  end;
  let local_n = max 2 (n / ranks) in
  let local_n = if local_n mod 2 = 0 then local_n else local_n + 1 in
  let config = Config.with_workers workers Config.default in
  let mk () =
    let spmd = Spmd.create ~rank_grid:[ ranks ] ~local_n in
    Spmd.init_dinv spmd;
    Spmd.fill_interior spmd ~base:"u" (fun x -> sin (3.0 *. x.(0)));
    Spmd.fill_interior spmd ~base:"f" (fun x -> cos (2.0 *. x.(0)));
    spmd
  in
  let spmd = mk () in
  let group = Spmd.gsrb_smooth_group spmd in
  let cert, diags = Pipeline.certify spmd group in
  List.iter
    (fun d -> print_endline (Sf_analysis.Diagnostics.to_string d))
    diags;
  (match cert with
  | None ->
      prerr_endline "hpgmg_run: pipeline certification failed";
      exit 1
  | Some c ->
      print_endline (Sf_analysis.Pipeline_check.describe c));
  let pipe = Pipeline.create ~config spmd group in
  let t0 = Unix.gettimeofday () in
  Pipeline.run ~sweeps:cycles pipe;
  let dt = Unix.gettimeofday () -. t0 in
  (* bulk-synchronous oracle on an identically initialised decomposition *)
  let oracle = mk () in
  for _ = 1 to cycles do
    Spmd.run_group oracle (Spmd.gsrb_smooth_group oracle)
  done;
  let a = Spmd.gather spmd ~base:"u" and b = Spmd.gather oracle ~base:"u" in
  let same = ref true in
  Sf_mesh.Mesh.iteri a (fun p v ->
      if not (Float.equal v (Sf_mesh.Mesh.get b p)) then same := false);
  Printf.printf
    "pipeline: %d ranks x %d cells, %d sweeps in %.3f s — %s bulk-sync\n"
    ranks local_n cycles dt
    (if !same then "bitwise identical to" else "DIVERGES from");
  exit (if !same then 0 else 1)

let run n cycles backend_name workers variable fcycle interp_linear profile
    trace_file faults guard autotune no_fusion time_tile pipeline =
  (match pipeline with
  | Some ranks -> run_pipeline_demo ~ranks ~n ~cycles ~workers
  | None -> ());
  let backend =
    match Jit.backend_of_string backend_name with
    | Some b -> b
    | None ->
        Printf.eprintf "unknown backend %S (interp|compiled|openmp|opencl)\n"
          backend_name;
        exit 2
  in
  (* --faults/--guard mirror the SF_FAULTS/SF_GUARD environment switches;
     the flag wins when both are given. *)
  (match faults with
  | None -> ()
  | Some spec -> (
      match Sf_resilience.Fault.arm_string spec with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "hpgmg_run: bad --faults spec: %s\n" msg;
          exit 2));
  (match guard with
  | None -> ()
  | Some "sample" -> Sf_resilience.Guard.set_mode Sf_resilience.Guard.Sample
  | Some "full" -> Sf_resilience.Guard.set_mode Sf_resilience.Guard.Full
  | Some "off" -> Sf_resilience.Guard.set_mode Sf_resilience.Guard.Off
  | Some other ->
      Printf.eprintf "hpgmg_run: unknown --guard mode %S (sample|full|off)\n"
        other;
      exit 2);
  (* Both sinks ride the same substrate: --profile wants the roofline-joined
     summary table, --trace wants the Chrome timeline.  Enable tracing and
     measure STREAM bandwidth *before* any kernel runs, so every kernel span
     carries its %-of-peak annotation. *)
  if profile || trace_file <> None then begin
    Trace.set_enabled true;
    let bw = Sf_roofline.Stream.measure () in
    Trace.set_bandwidth_gbs bw;
    Printf.printf "STREAM bandwidth: %.2f GB/s (roofline reference)\n%!" bw
  end;
  (* from the CLI, fusion defaults ON (--no-fusion restores singleton
     waves); library callers still get the conservative SF_FUSION default *)
  let jit_base =
    {
      (Config.with_workers workers Config.default) with
      Config.fusion = not no_fusion;
      time_tile = (if time_tile > 0 then time_tile else Config.default.Config.time_tile);
    }
  in
  (* --autotune: tune the GSRB smoother stack (the solver's hot loop) on a
     scratch finest level, then solve under the winning plan.  A repeat run
     on the same machine/backend/worker count replays the persisted plan
     without measuring anything (visible as a tuning-db hit in --profile). *)
  let jit =
    if not autotune then jit_base
    else begin
      let level = Level.create ~n in
      let shape = level.Level.shape in
      let reps = Mg.default_config.Mg.smooths in
      let group = Operators.gsrb_smooth in
      let measure cfg =
        let p = Autotune.plan_of_config cfg in
        let tiled = p.Autotune.time_tile > 1 in
        let kernel =
          Jit.compile ~config:cfg ~reps:(if tiled then reps else 1) backend
            ~shape group
        in
        let apps = if tiled then 1 else reps in
        let run =
          kernel.Kernel.bind ~params:(Level.params level) level.Level.grids
        in
        let once () =
          for _ = 1 to apps do
            run ()
          done
        in
        once ();
        (* warm: JIT + pool spin-up *)
        let best = ref infinity in
        for _ = 1 to 3 do
          let t0 = Unix.gettimeofday () in
          once ();
          best := Float.min !best (Unix.gettimeofday () -. t0)
        done;
        !best
      in
      let r = Autotune.tune ~config:jit_base ~backend ~shape ~reps ~measure group in
      Printf.printf "autotune: %s (%s%s)\n%!"
        (Autotune.describe r.Autotune.plan)
        (Autotune.source_to_string r.Autotune.source)
        (match r.Autotune.measured_s with
        | Some m -> Printf.sprintf ", %.3g s measured" m
        | None -> Printf.sprintf ", %.3g s predicted" r.Autotune.predicted_s);
      r.Autotune.config
    end
  in
  let config =
    {
      Mg.default_config with
      backend;
      jit;
      interp = (if interp_linear then Mg.Linear else Mg.Constant);
    }
  in
  let solver = Mg.create ~config ~n () in
  if variable then begin
    Mg.set_beta solver Problem.beta_smooth;
    Problem.setup_variable ~seed:42 (Mg.finest solver);
    Mg.set_beta solver Problem.beta_smooth
  end
  else Problem.setup_poisson (Mg.finest solver);
  Printf.printf
    "HPGMG (Snowflake/OCaml): n=%d (%d levels, %d DOF), backend=%s, \
     workers=%d, %s coefficients, %s interpolation\n%!"
    n
    (Array.length solver.Mg.levels)
    (Mg.dof solver) (Jit.backend_name backend) workers
    (if variable then "variable" else "constant")
    (if interp_linear then "trilinear" else "piecewise-constant");
  let t0 = Unix.gettimeofday () in
  if fcycle then begin
    Mg.fcycle solver;
    Printf.printf "F-cycle residual: %.6e\n" (Mg.residual_norm solver)
  end;
  let supervised =
    Sf_resilience.Fault.armed () || Sf_resilience.Guard.active ()
  in
  let norms =
    if supervised then Mg.solve_resilient ~cycles solver
    else Mg.solve ~cycles solver
  in
  let dt = Unix.gettimeofday () -. t0 in
  if supervised && Jit.backend_name (Mg.active_backend solver)
                   <> Jit.backend_name backend
  then
    Printf.printf "backend failover: %s -> %s\n"
      (Jit.backend_name backend)
      (Jit.backend_name (Mg.active_backend solver));
  Array.iteri
    (fun i r ->
      if i = 0 then Printf.printf "initial residual: %.6e\n" r
      else
        Printf.printf "v-cycle %2d: residual %.6e  (reduction %.3f)\n" i r
          (r /. norms.(i - 1)))
    norms;
  Printf.printf "solve time: %.3f s  (%.0f DOF/s over %d cycles)\n" dt
    (float_of_int (Mg.dof solver) /. (dt /. float_of_int cycles))
    cycles;
  if not variable then begin
    let err =
      Level.error_vs (Mg.finest solver)
        (Level.u (Mg.finest solver))
        Problem.exact_sine
    in
    Printf.printf "discretisation error vs exact solution: %.3e (O(h^2) = %.3e)\n"
      err
      (1. /. float_of_int (n * n))
  end;
  if profile then begin
    Printf.printf "\nsmoother plan: %s\n" (Mg.smoother_plan solver);
    print_endline "\ntrace summary (roofline-joined):";
    Sf_trace.Report.print_summary ()
  end;
  match trace_file with
  | Some path ->
      Trace.write_chrome_json path;
      Printf.printf "wrote Chrome trace (%d events) to %s\n"
        (List.length (Trace.events ()))
        path
  | None -> ()

let n_arg =
  Arg.(value & opt int 32 & info [ "n"; "size" ] ~doc:"Finest interior size per axis (coarsest * 2^k).")

let cycles_arg =
  Arg.(value & opt int 10 & info [ "cycles" ] ~doc:"Number of V-cycles (paper uses 10).")

let backend_arg =
  Arg.(value & opt string "compiled" & info [ "backend" ] ~doc:"interp | compiled | openmp | opencl")

let workers_arg =
  Arg.(
    value
    & opt int Config.default_workers
    & info [ "workers" ] ~doc:"Parallel degree for the pool-backed backends (default $(b,SF_WORKERS)).")

let variable_arg =
  Arg.(value & flag & info [ "variable" ] ~doc:"Variable-coefficient problem (beta from Problem.beta_smooth).")

let fcycle_arg =
  Arg.(value & flag & info [ "fcycle" ] ~doc:"Run one full-multigrid F-cycle before the V-cycles.")

let linear_arg =
  Arg.(value & flag & info [ "linear-interp" ] ~doc:"Use trilinear interpolation instead of piecewise-constant.")

let profile_arg =
  Arg.(value & flag & info [ "profile" ] ~doc:"Print the per-level, per-operation timing breakdown.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the solve to $(docv) \
           (load in chrome://tracing or Perfetto).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Arm a fault-injection campaign (same grammar as $(b,SF_FAULTS); \
           the flag wins when both are set): comma-separated \
           $(i,site:kind) clauses with optional $(i,@p=)/$(i,@n=)/\
           $(i,@count=)/$(i,@seed=)/$(i,@match=) modifiers, e.g. \
           $(b,kernel:raise@match=openmp,wave:transient@n=2).  An armed \
           campaign also switches the solve to the supervised path \
           (retry, backend failover, checkpoint/rollback); see \
           docs/RESILIENCE.md.")

let guard_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "guard" ] ~docv:"MODE"
        ~doc:
          "Force the post-run NaN/Inf guard mode (mirrors $(b,SF_GUARD)): \
           $(b,sample) scans ~1024 strided points per output grid, \
           $(b,full) scans every point, $(b,off) disables scanning even \
           under an armed fault campaign.")

let autotune_arg =
  Arg.(
    value & flag
    & info [ "autotune" ]
        ~doc:
          "Tune the smoother plan (fusion $(i,x) tile $(i,x) temporal depth) \
           before solving: candidates are ranked by the analytic roofline \
           model, the best few confirmed by timed runs, and the winner \
           persisted in the tuning DB ($(b,SF_TUNE_DB) or \
           ~/.cache/snowflake/tuning.json) so repeat runs replay it without \
           re-measuring.")

let no_fusion_arg =
  Arg.(
    value & flag
    & info [ "no-fusion" ]
        ~doc:
          "Disable cross-wave fusion (from the CLI, cofusible stencils are \
           fused into single sweeps by default).")

let time_tile_arg =
  Arg.(
    value & opt int 0
    & info [ "time-tile" ] ~docv:"K"
        ~doc:
          "Temporal-block the smoother: K consecutive smoother applications \
           run as one skewed time-tiled kernel (~one memory pass per K \
           sweeps, bitwise identical results).  0 leaves the default.")

let pipeline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pipeline" ] ~docv:"RANKS"
        ~doc:
          "Demo the certified streaming distribution instead of the solve: \
           decompose a 1-D GSRB smoother over $(docv) simulated ranks, \
           certify it as a streaming pipeline (bounded channel depths + \
           deadlock-freedom proof, codes SF030..SF034), run --cycles \
           pipelined sweeps, and check the result bitwise against the \
           bulk-synchronous exchange.")

let cmd =
  let doc = "Snowflake-built geometric multigrid (HPGMG reproduction)" in
  Cmd.v
    (Cmd.info "hpgmg_run" ~doc)
    Term.(
      const run $ n_arg $ cycles_arg $ backend_arg $ workers_arg
      $ variable_arg $ fcycle_arg $ linear_arg $ profile_arg $ trace_arg
      $ faults_arg $ guard_arg $ autotune_arg $ no_fusion_arg $ time_tile_arg
      $ pipeline_arg)

let () = exit (Cmd.eval cmd)
