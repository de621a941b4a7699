open Sf_util
open Sf_mesh
open Snowflake
open Sf_analysis
open Sf_backends
open Sf_hpgmg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------ operators *)

let test_boundaries_structure () =
  let bcs = Operators.boundaries ~grid:"u" in
  check_int "six faces" 6 (List.length bcs);
  List.iter
    (fun s ->
      check_bool "writes u" true (String.equal s.Stencil.output "u");
      check_bool "in place" true (Stencil.is_in_place s))
    bcs

let test_boundaries_effect () =
  let level = Level.create ~n:4 in
  let u = Level.u level in
  Level.fill_interior u level (fun _ _ _ -> 2.);
  let kernel =
    Jit.compile Jit.Compiled ~shape:level.Level.shape
      (Group.make ~label:"bcs" (Operators.boundaries ~grid:"u"))
  in
  kernel.Kernel.run ~params:(Level.params level) level.Level.grids;
  (* ghost = -interior on all six faces *)
  Alcotest.(check (float 0.)) "x low" (-2.) (Mesh.get u [| 0; 2; 2 |]);
  Alcotest.(check (float 0.)) "x high" (-2.) (Mesh.get u [| 5; 2; 2 |]);
  Alcotest.(check (float 0.)) "y low" (-2.) (Mesh.get u [| 2; 0; 2 |]);
  Alcotest.(check (float 0.)) "z high" (-2.) (Mesh.get u [| 2; 2; 5 |]);
  (* corners of the ghost ring are untouched by face stencils *)
  Alcotest.(check (float 0.)) "corner untouched" 0. (Mesh.get u [| 0; 0; 0 |])

let test_gsrb_smooth_waves () =
  (* boundaries(6) red boundaries(6) black = 14 stencils in 4 waves *)
  let shape = Ivec.of_list [ 10; 10; 10 ] in
  check_int "stencils" 14 (Group.length Operators.gsrb_smooth);
  let waves = Schedule.greedy_waves ~shape Operators.gsrb_smooth in
  check_int "waves" 4 (List.length waves);
  Alcotest.(check (list int)) "first wave = 6 faces" [ 0; 1; 2; 3; 4; 5 ]
    (List.hd waves)

let test_dinv_constant_beta () =
  (* beta = 1: dinv = h^2 / 6 everywhere in the interior *)
  let level = Level.create ~n:8 in
  let kernel =
    Jit.compile Jit.Compiled ~shape:level.Level.shape
      (Group.make ~label:"dinv" [ Operators.dinv_setup ])
  in
  kernel.Kernel.run ~params:(Level.params level) level.Level.grids;
  let h = level.Level.h in
  Alcotest.(check (float 1e-15))
    "dinv value" (h *. h /. 6.)
    (Mesh.get (Level.dinv level) [| 4; 4; 4 |])

let test_cc_laplacian_consistency () =
  (* A_cc applied to the manufactured solution approximates 3π²·u with
     O(h²) accuracy *)
  let errs =
    List.map
      (fun n ->
        let level = Level.create ~n in
        Mesh.fill (Level.u level) 0.;
        Level.fill_interior (Level.u level) level Problem.exact_sine;
        let kernel =
          Jit.compile Jit.Compiled ~shape:level.Level.shape
            (Group.make ~label:"lap"
               (Operators.boundaries ~grid:"u"
               @ [ Operators.laplacian_7pt ~out:"res" ~input:"u" ]))
        in
        kernel.Kernel.run ~params:(Level.params level) level.Level.grids;
        let err = ref 0. in
        Level.fill_interior (Grids.find level.Level.grids "tmp") level
          (fun _ _ _ -> 0.);
        (* compare against the analytic rhs at cell centres *)
        let res = Level.res level in
        for i = 1 to n do
          for j = 1 to n do
            for k = 1 to n do
              let p = [| i; j; k |] in
              let x, y, z = Level.cell_center level p in
              err :=
                Float.max !err
                  (Float.abs (Mesh.get res p -. Problem.rhs_sine x y z))
            done
          done
        done;
        !err)
      [ 8; 16 ]
  in
  match errs with
  | [ e8; e16 ] ->
      check_bool
        (Printf.sprintf "O(h^2): ratio %.2f" (e8 /. e16))
        true
        (e8 /. e16 > 3. && e8 /. e16 < 5.)
  | _ -> assert false

let apply_cc_operator level stencil =
  (* fill u (ghosts included) with the exact sine and apply the operator *)
  let u = Level.u level in
  Mesh.fill_with u (fun p ->
      let x, y, z = Level.cell_center level p in
      Problem.exact_sine x y z);
  let kernel =
    Jit.compile Jit.Compiled ~shape:level.Level.shape
      (Group.make ~label:("apply_" ^ stencil.Stencil.label) [ stencil ])
  in
  kernel.Kernel.run ~params:(Level.params level) level.Level.grids;
  let err = ref 0. and interior_margin = 2 in
  let n = level.Level.n in
  for i = 1 + interior_margin to n - interior_margin do
    for j = 1 + interior_margin to n - interior_margin do
      for k = 1 + interior_margin to n - interior_margin do
        let p = [| i; j; k |] in
        let x, y, z = Level.cell_center level p in
        err :=
          Float.max !err
            (Float.abs (Mesh.get (Level.res level) p -. Problem.rhs_sine x y z))
      done
    done
  done;
  !err

let test_laplacian_27pt_consistency () =
  let err n =
    apply_cc_operator (Level.create ~n)
      (Operators.laplacian_27pt ~out:"res" ~input:"u")
  in
  let e8 = err 8 and e16 = err 16 in
  check_bool
    (Printf.sprintf "27pt O(h^2): ratio %.2f" (e8 /. e16))
    true
    (e8 /. e16 > 3. && e8 /. e16 < 5.)

let test_laplacian_4th_order () =
  let err n =
    apply_cc_operator (Level.create ~n)
      (Operators.laplacian_4th ~out:"res" ~input:"u")
  in
  let e8 = err 8 and e16 = err 16 in
  check_bool
    (Printf.sprintf "4th order: ratio %.2f" (e8 /. e16))
    true
    (e8 /. e16 > 10. && e8 /. e16 < 24.)

let test_gsrb4_converges () =
  let level = Level.create ~n:8 in
  Level.set_beta level Problem.beta_smooth;
  let kernel =
    Jit.compile Jit.Compiled ~shape:level.Level.shape
      (Group.make ~label:"dinv" [ Operators.dinv_setup ])
  in
  kernel.Kernel.run ~params:(Level.params level) level.Level.grids;
  Level.fill_interior (Level.f level) level Problem.rhs_sine;
  let residual () =
    let k =
      Jit.compile Jit.Compiled ~shape:level.Level.shape
        (Group.make ~label:"res4"
           (Operators.boundaries ~grid:"u" @ [ Operators.residual_vc ]))
    in
    k.Kernel.run ~params:(Level.params level) level.Level.grids;
    Level.interior_norm_l2 level (Level.res level)
  in
  let smooth =
    Jit.compile Jit.Compiled ~shape:level.Level.shape
      (Nd.gsrb (Nd.vc ~dims:3) ~ncolors:4)
  in
  let r0 = residual () in
  for _ = 1 to 30 do
    smooth.Kernel.run ~params:(Level.params level) level.Level.grids
  done;
  check_bool "4-colour smoothing reduces residual" true (residual () < r0 /. 10.)

let test_gsrb4_colors_parallel () =
  let shape = Ivec.of_list [ 10; 10; 10 ] in
  List.iter
    (fun g ->
      let colors =
        List.filter
          (fun s ->
            String.length s.Stencil.label >= 5
            && String.sub s.Stencil.label 0 5 = "gsrb4")
          (Group.stencils g)
      in
      check_int "four colour sweeps" 4 (List.length colors);
      List.iter
        (fun s ->
          check_bool (s.Stencil.label ^ " parallel") true
            (Dependence.point_parallel ~shape s))
        colors)
    [ Nd.gsrb (Nd.vc ~dims:3) ~ncolors:4 ]

let test_chebyshev_smoother () =
  let level = Level.create ~n:8 in
  Level.fill_interior (Level.f level) level Problem.rhs_sine;
  let params =
    Nd.chebyshev_params ~dims:3 ~level_h:level.Level.h ~lambda_lo_frac:0.1
      ~degree:4
  in
  let smooth =
    Jit.compile Jit.Compiled ~shape:level.Level.shape
      (Nd.chebyshev (Nd.cc ~dims:3) ~degree:4)
  in
  let residual () =
    let k =
      Jit.compile Jit.Compiled ~shape:level.Level.shape
        (Group.make ~label:"res_cc"
           (Operators.boundaries ~grid:"u" @ [ Nd.residual (Nd.cc ~dims:3) ]))
    in
    k.Kernel.run ~params:(Level.params level) level.Level.grids;
    Level.interior_norm_l2 level (Level.res level)
  in
  let r0 = residual () in
  for _ = 1 to 8 do
    smooth.Kernel.run ~params level.Level.grids
  done;
  let r1 = residual () in
  check_bool
    (Printf.sprintf "chebyshev reduces residual (%.2e -> %.2e)" r0 r1)
    true (r1 < r0 /. 50.);
  (* odd degree ends with the copy-back and must also converge *)
  let smooth3 =
    Jit.compile Jit.Compiled ~shape:level.Level.shape
      (Nd.chebyshev (Nd.cc ~dims:3) ~degree:3)
  in
  let params3 =
    Nd.chebyshev_params ~dims:3 ~level_h:level.Level.h ~lambda_lo_frac:0.1
      ~degree:3
  in
  for _ = 1 to 4 do
    smooth3.Kernel.run ~params:params3 level.Level.grids
  done;
  check_bool "odd degree still converges" true (residual () < r1 *. 1.01)

(* --------------------------------------------- baseline vs DSL oracle *)

let prepared_pair n =
  let mk () =
    let level = Level.create ~n in
    Level.set_beta level Problem.beta_smooth;
    Baseline.init_dinv level;
    Level.fill_interior (Level.u level) level (fun x y z ->
        sin (3. *. x) +. cos (2. *. (y +. z)));
    Level.fill_interior (Level.f level) level Problem.rhs_sine;
    level
  in
  (mk (), mk ())

(* Each DSL operator is written in the hand kernel's order, so the two
   agree bit for bit; only the full solve keeps a tolerance. *)
let agree ?(ulps = 0) ?(tol = 0.) name m1 m2 =
  match Mesh.first_mismatch ~ulps ~atol:tol m1 m2 with
  | None -> ()
  | Some (p, a, b) ->
      Alcotest.failf "%s: baseline and DSL differ at %s: %.17g vs %.17g" name
        (Ivec.to_string p) a b

let run_group level group =
  let kernel = Jit.compile Jit.Compiled ~shape:level.Level.shape group in
  kernel.Kernel.run ~params:(Level.params level) level.Level.grids

let test_baseline_gsrb () =
  let dsl, hand = prepared_pair 8 in
  run_group dsl Operators.gsrb_smooth;
  Baseline.smooth_gsrb hand;
  agree "gsrb u" (Level.u dsl) (Level.u hand)

let test_baseline_residual () =
  let dsl, hand = prepared_pair 8 in
  run_group dsl
    (Group.make ~label:"res"
       (Operators.boundaries ~grid:"u" @ [ Operators.residual_vc ]));
  Baseline.residual_vc hand;
  agree "residual" (Level.res dsl) (Level.res hand)

let test_baseline_jacobi () =
  let dsl, hand = prepared_pair 8 in
  run_group dsl Operators.jacobi_smooth;
  Baseline.jacobi_cc hand;
  agree "jacobi u" (Level.u dsl) (Level.u hand)

let test_baseline_laplacian () =
  let dsl, hand = prepared_pair 8 in
  run_group dsl
    (Group.make ~label:"lap"
       (Operators.boundaries ~grid:"u"
       @ [ Operators.laplacian_7pt ~out:"res" ~input:"u" ]));
  Baseline.laplacian_cc hand ~out:(Level.res hand) ~input:(Level.u hand);
  agree "laplacian" (Level.res dsl) (Level.res hand)

let test_baseline_transfer_ops () =
  let fine_dsl, fine_hand = prepared_pair 8 in
  let coarse_dsl = Level.create ~n:4 and coarse_hand = Level.create ~n:4 in
  (* restriction of the residual field *)
  Level.fill_interior (Level.res fine_dsl) fine_dsl (fun x y z ->
      (x *. y) -. z);
  Level.fill_interior (Level.res fine_hand) fine_hand (fun x y z ->
      (x *. y) -. z);
  let kernel =
    Jit.compile Jit.Compiled ~shape:coarse_dsl.Level.shape
      (Group.make ~label:"restrict" [ Operators.restriction ])
  in
  kernel.Kernel.run
    ~params:(Level.params coarse_dsl)
    (Grids.of_list
       [
         ("fine_res", Level.res fine_dsl); ("coarse_f", Level.f coarse_dsl);
       ]);
  Baseline.restrict_pc ~coarse:coarse_hand ~src:(Level.res fine_hand);
  agree "restriction" (Level.f coarse_dsl) (Level.f coarse_hand);
  (* interpolation-and-correct *)
  Level.fill_interior (Level.u coarse_dsl) coarse_dsl (fun x y z ->
      x +. (2. *. y) -. z);
  Level.fill_interior (Level.u coarse_hand) coarse_hand (fun x y z ->
      x +. (2. *. y) -. z);
  let kernel =
    Jit.compile Jit.Compiled ~shape:coarse_dsl.Level.shape
      (Group.make ~label:"interp" Operators.interpolation)
  in
  kernel.Kernel.run
    ~params:(Level.params coarse_dsl)
    (Grids.of_list
       [ ("coarse_u", Level.u coarse_dsl); ("fine_u", Level.u fine_dsl) ]);
  Baseline.interpolate_pc ~coarse:coarse_hand ~fine:fine_hand;
  agree "interpolation" (Level.u fine_dsl) (Level.u fine_hand)

let test_baseline_full_solver () =
  let dsl = Mg.create ~n:8 () in
  let hand = Baseline.create ~n:8 () in
  Mg.set_beta dsl Problem.beta_smooth;
  Baseline.set_beta hand Problem.beta_smooth;
  Problem.setup_variable ~seed:7 (Mg.finest dsl);
  Problem.setup_variable ~seed:7 (Baseline.finest hand);
  Mg.set_beta dsl Problem.beta_smooth;
  Baseline.set_beta hand Problem.beta_smooth;
  for _ = 1 to 3 do
    Mg.vcycle dsl;
    Baseline.vcycle hand
  done;
  (* the two V-cycles are not the same sequence of operations everywhere:
     after three cycles they differ in the last places *)
  agree ~ulps:256 ~tol:1e-9 "solver u"
    (Level.u (Mg.finest dsl))
    (Level.u (Baseline.finest hand))

(* ------------------------------------------------------------- solver *)

let test_poisson_convergence () =
  let solver = Mg.create ~n:16 () in
  Problem.setup_poisson (Mg.finest solver);
  let norms = Mg.solve ~cycles:6 solver in
  check_bool "monotone decrease" true
    (Array.for_all2 (fun a b -> b < a) (Array.sub norms 0 6)
       (Array.sub norms 1 6));
  (* asymptotic per-cycle factor typical of GSRB V(2,2) *)
  let factor = norms.(6) /. norms.(5) in
  check_bool (Printf.sprintf "factor %.3f < 0.2" factor) true (factor < 0.2);
  check_bool "overall reduction > 1e6" true (norms.(6) < norms.(0) *. 1e-6)

let test_poisson_discretization_error () =
  let err n =
    let solver = Mg.create ~n () in
    Problem.setup_poisson (Mg.finest solver);
    ignore (Mg.solve ~cycles:8 solver);
    Level.error_vs (Mg.finest solver)
      (Level.u (Mg.finest solver))
      Problem.exact_sine
  in
  let e8 = err 8 and e16 = err 16 in
  check_bool
    (Printf.sprintf "O(h^2): %.2f" (e8 /. e16))
    true
    (e8 /. e16 > 3. && e8 /. e16 < 5.)

let test_variable_coefficient_convergence () =
  let solver = Mg.create ~n:16 () in
  Mg.set_beta solver Problem.beta_smooth;
  Problem.setup_variable ~seed:3 (Mg.finest solver);
  Mg.set_beta solver Problem.beta_smooth;
  let norms = Mg.solve ~cycles:5 solver in
  check_bool "vc converges" true (norms.(5) < norms.(0) *. 1e-5)

let test_linear_interpolation_converges () =
  let config = { Mg.default_config with interp = Mg.Linear } in
  let solver = Mg.create ~config ~n:16 () in
  Problem.setup_poisson (Mg.finest solver);
  let norms = Mg.solve ~cycles:6 solver in
  check_bool "linear interp converges" true (norms.(6) < norms.(0) *. 1e-5)

let test_fcycle () =
  let solver = Mg.create ~n:16 () in
  Problem.setup_poisson (Mg.finest solver);
  let r0 = Mg.residual_norm solver in
  Mg.fcycle solver;
  let r1 = Mg.residual_norm solver in
  check_bool "fcycle reduces residual" true (r1 < r0 /. 5.);
  (* an F-cycle should land near discretisation accuracy *)
  let err =
    Level.error_vs (Mg.finest solver)
      (Level.u (Mg.finest solver))
      Problem.exact_sine
  in
  check_bool "fcycle error near h^2" true (err < 0.05)

(* Mg compiles and binds at set-up and after a demotion, and its cycles
   only run the bound instances: no Jit cache probe in between. *)
let test_no_probes_after_setup () =
  let solver = Mg.create ~n:8 () in
  Problem.setup_poisson (Mg.finest solver);
  let lookups () =
    let hits, misses = Jit.cache_stats () in
    hits + misses
  in
  let cycles () =
    let before = lookups () in
    Mg.vcycle solver;
    Mg.fcycle solver;
    ignore (Mg.residual_norm solver : float);
    check_int "no probe in a cycle" before (lookups ())
  in
  cycles ();
  let before = lookups () in
  check_bool "demoted" true (Mg.demote_backend solver);
  (* one compile per (level, operator): smoother, residual, dinv, then
     restriction and interpolation on each of the two coarser levels *)
  let nlevels = Array.length solver.Mg.levels in
  check_int "one probe per rebound kernel" ((3 * nlevels) + (2 * (nlevels - 1)))
    (lookups () - before);
  cycles ()

let test_alternative_smoothers_converge () =
  (* every smoother drives the Poisson V-cycle to convergence; GSRB-family
     are the fastest per cycle *)
  let reduction smoother =
    let config = { Mg.default_config with smoother } in
    let solver = Mg.create ~config ~n:16 () in
    Problem.setup_poisson (Mg.finest solver);
    let norms = Mg.solve ~cycles:5 solver in
    norms.(5) /. norms.(0)
  in
  let gsrb = reduction Mg.Gsrb in
  let gsrb4 = reduction Mg.Gsrb4 in
  let jacobi = reduction Mg.Jacobi in
  let cheb = reduction (Mg.Chebyshev 4) in
  check_bool (Printf.sprintf "gsrb %.2e" gsrb) true (gsrb < 1e-5);
  check_bool (Printf.sprintf "gsrb4 %.2e" gsrb4) true (gsrb4 < 1e-5);
  check_bool (Printf.sprintf "jacobi %.2e" jacobi) true (jacobi < 0.1);
  check_bool (Printf.sprintf "chebyshev %.2e" cheb) true (cheb < 1e-3)

(* Every tier runs the stencil's own expression in its order, so a solve
   equals the interpreter's bit for bit on every backend (test_native
   checks the native tier the same way). *)
let test_solver_backends_agree () =
  let solve backend =
    let config = { Mg.default_config with backend } in
    let solver = Mg.create ~config ~n:8 () in
    Problem.setup_poisson (Mg.finest solver);
    Mg.set_beta solver Problem.beta_smooth;
    for _ = 1 to 2 do
      Mg.vcycle solver
    done;
    Level.u (Mg.finest solver)
  in
  let reference = solve Jit.Interp in
  List.iter
    (fun backend ->
      match Mesh.first_mismatch ~ulps:0 ~atol:0. reference (solve backend) with
      | None -> ()
      | Some (p, a, b) ->
          Alcotest.failf "%s differs from interp at %s: %.17g vs %.17g"
            (Jit.backend_name backend) (Ivec.to_string p) a b)
    [ Jit.Compiled; Jit.Openmp; Jit.Opencl ]

let test_helmholtz_smoother () =
  (* a > 0 adds a positive diagonal shift: relaxation converges at least
     as fast as Poisson, and with b = 1, a = 0 the operator degenerates to
     the VC Poisson one exactly *)
  let level = Level.create ~n:8 in
  Level.set_beta level Problem.beta_smooth;
  let alpha = Mesh.create level.Level.shape in
  Mesh.fill alpha 1.;
  Grids.add level.Level.grids "alpha" alpha;
  Level.fill_interior (Level.f level) level Problem.rhs_sine;
  let params a b = ("a_coef", a) :: ("b_coef", b) :: Level.params level in
  let run_group group ps =
    (Jit.compile Jit.Compiled ~shape:level.Level.shape group).Kernel.run
      ~params:ps level.Level.grids
  in
  (* degenerate case: dinv and residual match the Poisson versions *)
  run_group (Group.make ~label:"dh" [ Nd.dinv (Nd.helmholtz ~dims:3) ])
    (params 0. 1.);
  let dinv_h = Mesh.copy (Level.dinv level) in
  run_group (Group.make ~label:"dp" [ Operators.dinv_setup ]) (params 0. 1.);
  check_bool "a=0,b=1 diag = poisson diag" true
    (Mesh.equal_approx ~tol:1e-14 dinv_h (Level.dinv level));
  (* now a genuine Helmholtz solve by relaxation *)
  run_group (Group.make ~label:"dh" [ Nd.dinv (Nd.helmholtz ~dims:3) ])
    (params 0.5 1.);
  let residual () =
    run_group
      (Group.make ~label:"rh"
         (Operators.boundaries ~grid:"u" @ [ Nd.residual (Nd.helmholtz ~dims:3) ]))
      (params 0.5 1.);
    Level.interior_norm_l2 level (Level.res level)
  in
  let r0 = residual () in
  for _ = 1 to 80 do
    run_group (Nd.gsrb (Nd.helmholtz ~dims:3) ~ncolors:2) (params 0.5 1.)
  done;
  check_bool "helmholtz relaxation converges" true (residual () < r0 /. 1e3)

(* ------------------------------------------------------ golden trees *)

(* Every tree a solver, perfbench or sfserved runs, pinned byte for byte
   by the MD5 of its [Program_io] text: same expression shape and
   association, same constant bits (round-trip digits), same labels.  The
   digests were recorded before the operators were derived from one
   [Nd.operator] definition; kernels, native-module digests and results
   all follow from these trees, so none may move.  The four [mg<d> jacobi]
   digests were re-recorded once, when the solver's Jacobi smoother moved
   from the constant- to the variable-coefficient operator. *)
let pinned_groups () =
  let smoother_name = function
    | Mg.Gsrb -> "gsrb"
    | Mg.Gsrb4 -> "gsrb4"
    | Mg.Jacobi -> "jacobi"
    | Mg.Chebyshev d -> Printf.sprintf "chebyshev%d" d
  in
  let mg ~dims smoother interp =
    let config = { Mg.default_config with Mg.smoother; interp } in
    let g = (Mg.create ~config ~dims ~n:4 ()).Mg.groups in
    let name s = Printf.sprintf "mg%d %s" dims s in
    [
      (name (smoother_name smoother), g.Mg.smoother);
      (name "residual", g.Mg.residual);
      (name "dinv", g.Mg.dinv);
      (name "restrict", g.Mg.restrict);
      ( name
          (match interp with Mg.Constant -> "interp_pc" | Mg.Linear -> "interp_tl"),
        g.Mg.interp );
    ]
  in
  let mg3 =
    List.concat_map
      (fun smoother ->
        List.concat_map (mg ~dims:3 smoother) [ Mg.Constant; Mg.Linear ])
      Mg.[ Gsrb; Gsrb4; Jacobi; Chebyshev 1; Chebyshev 2; Chebyshev 4 ]
  in
  let mg_nd =
    List.concat_map
      (fun dims ->
        List.concat_map
          (fun smoother -> mg ~dims smoother Mg.Constant)
          Mg.[ Gsrb; Jacobi ])
      [ 1; 2; 4 ]
  in
  let spmd =
    List.concat_map
      (fun rank_grid ->
        let t = Sf_distributed.Spmd.create ~rank_grid ~local_n:2 in
        let name s = Printf.sprintf "spmd%d %s" (List.length rank_grid) s in
        [
          (name "gsrb", Sf_distributed.Spmd.gsrb_smooth_group t);
          (name "residual", Sf_distributed.Spmd.residual_group t);
        ])
      [ [ 2; 2 ]; [ 2; 1; 1 ] ]
  in
  let bcs = Operators.boundaries ~grid:"u" in
  let operators =
    [
      ("ops boundaries", Group.make ~label:"bcs" bcs);
      ( "ops residual",
        Group.make ~label:"residual" (bcs @ [ Operators.residual_vc ]) );
      ("ops gsrb_smooth", Operators.gsrb_smooth);
      ( "ops cc7",
        Group.make ~label:"cc_7pt"
          (bcs @ [ Operators.laplacian_7pt ~out:"res" ~input:"u" ]) );
      ("ops jacobi_smooth", Operators.jacobi_smooth);
      ("ops dinv", Group.make ~label:"dinv" [ Operators.dinv_setup ]);
      ("ops restrict", Group.make ~label:"restrict" [ Operators.restriction ]);
      ("ops interp_pc", Group.make ~label:"interp_pc" Operators.interpolation);
      ( "ops laplacian_27pt",
        Group.make ~label:"l27"
          [ Operators.laplacian_27pt ~out:"res" ~input:"u" ] );
      ( "ops laplacian_4th",
        Group.make ~label:"l4"
          [ Operators.laplacian_4th ~out:"res" ~input:"u" ] );
    ]
  in
  mg3 @ mg_nd @ spmd @ operators

let golden_md5 =
  [
    ("mg3 gsrb", "f37e02d969bd395d6f06877d0666cb76");
    ("mg3 residual", "c8b1e1fd247725a0b8627a1e6df2f11b");
    ("mg3 dinv", "93e64bb5c1a383048d3b9b877f827df0");
    ("mg3 restrict", "11c3f5e207158dbc692c3b50c5cf984b");
    ("mg3 interp_pc", "66b1f1cf7bb556634a540c19d7f087bf");
    ("mg3 interp_tl", "5ce8eb3ae097bd3023e4a9309cc5a0d9");
    ("mg3 gsrb4", "b42038b63b1e147ebe9f9a5b6d0a95c8");
    ("mg3 jacobi", "b75d56bb107cd4678a8ea05903ab6fe1");
    ("mg3 chebyshev1", "a3672e987b3f56a788e87638922dbeef");
    ("mg3 chebyshev2", "d47466a39a66e40409e41a4d5319e1ff");
    ("mg3 chebyshev4", "0e8c372e0e7b3162e9c085567ddfc558");
    ("mg1 gsrb", "167fa9557d41b452fd4047e08a5ee902");
    ("mg1 residual", "49db911c27ce008e1870b05b9e439469");
    ("mg1 dinv", "2961a456931844b69ddb126da45688dd");
    ("mg1 restrict", "d6b5a37177deee77432a9061f968849e");
    ("mg1 interp_pc", "7f518e4da97fe7b7b0b7fccf764ea3ca");
    ("mg1 jacobi", "c84853a4368a310fca0267e36b9b60af");
    ("mg2 gsrb", "b70051fb43f6f8c5c7b14d60c2622f9b");
    ("mg2 residual", "9011cbac31cab565e83742ee056d4c72");
    ("mg2 dinv", "b6d2aa445ccbada1f62f534203c97465");
    ("mg2 restrict", "071e885a0064756d82f4cb2d5ff99897");
    ("mg2 interp_pc", "63da081979ad1ec2131cec3d7fbfaea0");
    ("mg2 jacobi", "553bd138320f33ebd1fc69865272665a");
    ("mg4 gsrb", "acdb512fa39ab40b8e6d7ccf675ea601");
    ("mg4 residual", "fb1533edbd98f4b396db896d66bc7c75");
    ("mg4 dinv", "a429f97abef2bbf076b0a8dc6fc14091");
    ("mg4 restrict", "f756341ebe884c28e1404baff99120a3");
    ("mg4 interp_pc", "799ca14c10035bf7812e65de1a21de41");
    ("mg4 jacobi", "fd627b6c5c51ff3508f25c43b8cdb178");
    ("spmd2 gsrb", "948d18311be20db36e67b458188ded15");
    ("spmd2 residual", "9053525205970eddbca8b41a773ede43");
    ("spmd3 gsrb", "d6cc08f626feaf8e68f464e338f19f63");
    ("spmd3 residual", "f9de959affa55b5d922df3468e6bb304");
    ("ops boundaries", "a176de8da348397421f49f5f6d67012f");
    ("ops residual", "c8b1e1fd247725a0b8627a1e6df2f11b");
    ("ops gsrb_smooth", "f37e02d969bd395d6f06877d0666cb76");
    ("ops cc7", "e4fbb9d40a19ed2df38d99bf6285e6ea");
    ("ops jacobi_smooth", "5ccc18163d909acb43564fedd8a1095c");
    ("ops dinv", "93e64bb5c1a383048d3b9b877f827df0");
    ("ops restrict", "11c3f5e207158dbc692c3b50c5cf984b");
    ("ops interp_pc", "66b1f1cf7bb556634a540c19d7f087bf");
    ("ops laplacian_27pt", "8a558f63663b78a8c32a3a8525c45db9");
    ("ops laplacian_4th", "5f6a03ead620d3eb302e535cc3f9267c");
  ]

let test_golden_trees () =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (name, group) ->
      let text = Program_io.group_to_string group in
      match Hashtbl.find_opt seen name with
      | Some first ->
          check_bool (name ^ ": one tree at every config") true
            (String.equal first text)
      | None ->
          Hashtbl.add seen name text;
          Alcotest.(check string)
            name
            (Option.value ~default:"" (List.assoc_opt name golden_md5))
            (Digest.to_hex (Digest.string text)))
    (pinned_groups ());
  check_int "every golden tree built" (List.length golden_md5)
    (Hashtbl.length seen)

let test_profile_breakdown () =
  let solver = Mg.create ~n:16 () in
  Problem.setup_poisson (Mg.finest solver);
  Alcotest.(check (list string)) "empty before work" []
    (List.map fst (Mg.profile solver));
  (* one tier for every level: under Auto, a specialisation that earlier
     tests in this process made hot runs native while the others do not *)
  Native.with_mode Native.Off (fun () -> ignore (Mg.solve ~cycles:2 solver));
  let prof = Mg.profile solver in
  let time key =
    match List.assoc_opt key prof with Some s -> s | None -> -1.
  in
  check_bool "smooth L0 tracked" true (time "smooth L0" > 0.);
  check_bool "residual L0 tracked" true (time "residual L0" > 0.);
  check_bool "bottom tracked" true (time "bottom L3" > 0.);
  check_bool "transfer ops tracked" true
    (time "restrict L0->L1" > 0. && time "interp L1->L0" > 0.);
  (* the paper's premise: the finest level dominates *)
  check_bool "finest smooth dominates" true
    (time "smooth L0" > time "smooth L1");
  Mg.reset_profile solver;
  Alcotest.(check (list string)) "reset" []
    (List.map fst (Mg.profile solver))

let test_timed_exception_safe () =
  (* regression: a raising body used to vanish from the profile — the
     sample was only booked after [f ()] returned normally *)
  let solver = Mg.create ~n:16 () in
  Mg.reset_profile solver;
  (try
     Mg.timed solver "doomed" (fun () -> failwith "boom")
   with Failure m -> Alcotest.(check string) "re-raised" "boom" m);
  (match List.assoc_opt "doomed" (Mg.profile solver) with
  | Some t -> check_bool "partial time booked" true (t >= 0.)
  | None -> Alcotest.fail "raising phase dropped from the profile");
  (* the sample accumulates with later successful runs under the same key *)
  Mg.timed solver "doomed" (fun () -> ());
  check_int "still one key" 1 (List.length (Mg.profile solver))

let test_create_validation () =
  (try
     ignore (Mg.create ~n:12 ());
     Alcotest.fail "12 is not coarsest*2^k"
   with Invalid_argument _ -> ());
  try
    ignore (Level.create ~n:5);
    Alcotest.fail "odd n accepted"
  with Invalid_argument _ -> ()

(* --------------------------------------------------------------- level *)

let test_level_basics () =
  let level = Level.create ~n:4 in
  check_int "dof" 64 (Level.dof level);
  Alcotest.(check (float 1e-15)) "h" 0.25 level.Level.h;
  let x, y, z = Level.cell_center level [| 1; 2; 4 |] in
  Alcotest.(check (float 1e-15)) "cx" 0.125 x;
  Alcotest.(check (float 1e-15)) "cy" 0.375 y;
  Alcotest.(check (float 1e-15)) "cz" 0.875 z;
  match Level.params level with
  | [ ("inv_h2", v) ] -> Alcotest.(check (float 1e-12)) "inv_h2" 16. v
  | _ -> Alcotest.fail "unexpected params"

let test_level_set_beta_face_positions () =
  let level = Level.create ~n:4 in
  (* beta(x,y,z) = x: beta_x at cell i sits at x = (i-1)h *)
  Level.set_beta level (fun x _ _ -> x);
  let bx = Grids.find level.Level.grids "beta_x" in
  Alcotest.(check (float 1e-15)) "face x of cell 1" 0. (Mesh.get bx [| 1; 2; 2 |]);
  Alcotest.(check (float 1e-15)) "face x of cell 3" 0.5 (Mesh.get bx [| 3; 2; 2 |]);
  (* beta_y of the same function: cell-centred in x *)
  let by = Grids.find level.Level.grids "beta_y" in
  Alcotest.(check (float 1e-15)) "by cell-centred" 0.375 (Mesh.get by [| 2; 1; 2 |])

let test_interior_norms_ignore_ghost () =
  let level = Level.create ~n:4 in
  let m = Level.res level in
  Mesh.fill m 100.;
  Level.fill_interior m level (fun _ _ _ -> 1.);
  Alcotest.(check (float 1e-12)) "l2 counts interior only" 8.
    (Level.interior_norm_l2 level m);
  Alcotest.(check (float 1e-12)) "linf interior" 1.
    (Level.interior_norm_linf level m)

let () =
  Alcotest.run "sf_hpgmg"
    [
      ( "operators",
        [
          Alcotest.test_case "boundaries structure" `Quick
            test_boundaries_structure;
          Alcotest.test_case "boundaries effect" `Quick test_boundaries_effect;
          Alcotest.test_case "gsrb waves" `Quick test_gsrb_smooth_waves;
          Alcotest.test_case "dinv beta=1" `Quick test_dinv_constant_beta;
          Alcotest.test_case "laplacian O(h^2)" `Quick
            test_cc_laplacian_consistency;
          Alcotest.test_case "27pt O(h^2)" `Quick
            test_laplacian_27pt_consistency;
          Alcotest.test_case "13pt O(h^4)" `Quick test_laplacian_4th_order;
          Alcotest.test_case "4-colour converges" `Quick test_gsrb4_converges;
          Alcotest.test_case "4-colour parallel" `Quick
            test_gsrb4_colors_parallel;
          Alcotest.test_case "chebyshev" `Quick test_chebyshev_smoother;
        ] );
      ( "baseline-oracle",
        [
          Alcotest.test_case "gsrb" `Quick test_baseline_gsrb;
          Alcotest.test_case "residual" `Quick test_baseline_residual;
          Alcotest.test_case "jacobi" `Quick test_baseline_jacobi;
          Alcotest.test_case "laplacian" `Quick test_baseline_laplacian;
          Alcotest.test_case "restrict/interp" `Quick
            test_baseline_transfer_ops;
          Alcotest.test_case "full solver" `Quick test_baseline_full_solver;
        ] );
      ( "solver",
        [
          Alcotest.test_case "poisson convergence" `Quick
            test_poisson_convergence;
          Alcotest.test_case "discretisation error" `Quick
            test_poisson_discretization_error;
          Alcotest.test_case "variable coefficients" `Quick
            test_variable_coefficient_convergence;
          Alcotest.test_case "linear interpolation" `Quick
            test_linear_interpolation_converges;
          Alcotest.test_case "fcycle" `Quick test_fcycle;
          Alcotest.test_case "no probes after set-up" `Quick
            test_no_probes_after_setup;
          Alcotest.test_case "alternative smoothers" `Quick
            test_alternative_smoothers_converge;
          Alcotest.test_case "backends agree" `Quick
            test_solver_backends_agree;
          Alcotest.test_case "creation validation" `Quick
            test_create_validation;
          Alcotest.test_case "profile breakdown" `Quick
            test_profile_breakdown;
          Alcotest.test_case "timed exception-safe" `Quick
            test_timed_exception_safe;
          Alcotest.test_case "helmholtz" `Quick test_helmholtz_smoother;
          Alcotest.test_case "golden trees" `Quick test_golden_trees;
        ] );
      ( "level",
        [
          Alcotest.test_case "basics" `Quick test_level_basics;
          Alcotest.test_case "beta face positions" `Quick
            test_level_set_beta_face_positions;
          Alcotest.test_case "interior norms" `Quick
            test_interior_norms_ignore_ghost;
        ] );
    ]
