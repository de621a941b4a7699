open Sf_mesh
open Sf_hpgmg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_axis_names () =
  Alcotest.(check string) "x" "x" (Nd.axis_name 0);
  Alcotest.(check string) "w" "w" (Nd.axis_name 3);
  Alcotest.(check string) "a5" "a5" (Nd.axis_name 5);
  Alcotest.(check string) "beta" "beta_z" (Nd.beta_name 2)

let test_group_shapes () =
  (* 2·dims boundary stencils; 2^dims interpolation parities *)
  List.iter
    (fun dims ->
      check_int
        (Printf.sprintf "%d-d boundaries" dims)
        (2 * dims)
        (List.length (Nd.boundaries ~dims ~grid:"u"));
      check_int
        (Printf.sprintf "%d-d parities" dims)
        (1 lsl dims)
        (List.length (Nd.interpolation ~dims)))
    [ 1; 2; 3; 4 ]

let solve_poisson ~dims ~n ~cycles =
  let solver = Mg.create ~dims ~n () in
  let finest = Mg.finest solver in
  Level.fill_interior_nd (Level.f finest) finest (Nd.rhs_sine ~dims);
  let norms = Mg.solve ~cycles solver in
  let err = Level.error_vs_nd finest (Level.u finest) Nd.exact_sine in
  (norms, err)

let test_1d_poisson () =
  (* piecewise-constant interpolation is weak in 1-D (per-cycle factor
     ≈0.35 rather than ≈0.07) — the solver still converges, it just needs
     more cycles; the error must still reach the discretisation floor *)
  let norms, err = solve_poisson ~dims:1 ~n:32 ~cycles:20 in
  check_bool "converged" true (norms.(20) < norms.(0) *. 1e-6);
  check_bool (Printf.sprintf "error %.2e" err) true (err < 2e-3)

let test_2d_poisson_convergence_and_order () =
  let _, e16 = solve_poisson ~dims:2 ~n:16 ~cycles:8 in
  let norms, e32 = solve_poisson ~dims:2 ~n:32 ~cycles:8 in
  check_bool "converged" true (norms.(8) < norms.(0) *. 1e-8);
  check_bool
    (Printf.sprintf "O(h^2) ratio %.2f" (e16 /. e32))
    true
    (e16 /. e32 > 3. && e16 /. e32 < 5.)

let test_4d_poisson () =
  (* rank-4 iteration spaces exercise the generic machinery beyond what
     any emitter supports *)
  let norms, err = solve_poisson ~dims:4 ~n:8 ~cycles:6 in
  check_bool "4-d converged" true (norms.(6) < norms.(0) *. 1e-6);
  check_bool (Printf.sprintf "4-d error %.2e" err) true (err < 0.1)

let test_variable_coefficients_2d () =
  let solver = Mg.create ~dims:2 ~n:16 () in
  Array.iter
    (fun level ->
      Level.set_beta_nd level (fun c ->
          1. +. (0.4 *. sin (6. *. c.(0)) *. cos (5. *. c.(1)))))
    solver.Mg.levels;
  Mg.init_dinv solver;
  let finest = Mg.finest solver in
  Level.fill_interior_nd (Level.f finest) finest (fun c -> c.(0) -. c.(1));
  let norms = Mg.solve ~cycles:6 solver in
  check_bool "vc 2-d converged" true (norms.(6) < norms.(0) *. 1e-6)

(* The four-colour smoother, Chebyshev and multilinear interpolation
   are derived at every rank: a 2-D Poisson solve with each converges. *)
let test_2d_derived_choices_converge () =
  let d = Mg.default_config in
  List.iter
    (fun (name, config, bound) ->
      let solver = Mg.create ~config ~dims:2 ~n:16 () in
      let finest = Mg.finest solver in
      Level.fill_interior_nd (Level.f finest) finest (Nd.rhs_sine ~dims:2);
      let norms = Mg.solve ~cycles:6 solver in
      check_bool
        (Printf.sprintf "2-d %s converged (%.2e)" name (norms.(6) /. norms.(0)))
        true
        (norms.(6) < norms.(0) *. bound))
    [
      ("Gsrb4", { d with Mg.smoother = Mg.Gsrb4 }, 1e-6);
      ("Chebyshev 2", { d with Mg.smoother = Mg.Chebyshev 2 }, 1e-3);
      ("Linear", { d with Mg.interp = Mg.Linear }, 1e-6);
    ]

(* Jacobi relaxes the operator whose residual the solver reduces: with a
   smooth β ≢ 1 a 16³ solve reduces about as well as with β ≡ 1 (4.75e-2
   against 4.58e-2 after five cycles).  Relaxing the constant-coefficient
   operator instead read 9.9e-2, twice the β ≡ 1 figure. *)
let test_jacobi_variable_beta () =
  let reduction beta =
    let config = { Mg.default_config with Mg.smoother = Mg.Jacobi } in
    let solver = Mg.create ~config ~n:16 () in
    Problem.setup_poisson (Mg.finest solver);
    Option.iter (Mg.set_beta solver) beta;
    let norms = Mg.solve ~cycles:5 solver in
    norms.(5) /. norms.(0)
  in
  let one = reduction None and smooth = reduction (Some Problem.beta_smooth) in
  check_bool
    (Printf.sprintf "beta_smooth %.2e within 10%% of beta 1 %.2e" smooth one)
    true
    (smooth <= 1.1 *. one)

(* Problem.setup_variable draws f from one Random stream in interior
   order, axis 0 outermost; this index-weighted sum of the 8³ level's f
   was recorded with the original i/j/k loop and pins that order. *)
let test_setup_variable_order () =
  let level = Level.create ~n:8 in
  Problem.setup_variable ~seed:1 level;
  let acc = ref 0. in
  Float.Array.iteri
    (fun k v -> acc := !acc +. (float_of_int (k + 1) *. v))
    (Mesh.data (Level.f level));
  Alcotest.(check string)
    "f checksum" "0x1.3cf9010cc29fap+10" (Printf.sprintf "%h" !acc)

(* The plan --profile prints is the kernel that runs: with fusion on, the
   compiled backend still runs the Jacobi smoother as one sequential
   kernel, not the fused partition another backend would run. *)
let test_smoother_plan_names_running_kernel () =
  let config =
    {
      Mg.default_config with
      Mg.smoother = Mg.Jacobi;
      jit = { Sf_backends.Config.default with fusion = true };
    }
  in
  let solver = Mg.create ~config ~n:8 () in
  let plan = Mg.smoother_plan solver in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length plan && (String.sub plan i n = sub || go (i + 1))
    in
    go 0
  in
  check_bool (Printf.sprintf "sequential plan: %s" plan) true
    (has "compiled: " && has "sequential");
  check_bool "no fusion partition" false (has "fusion")

let test_level_dof () =
  check_int "2d dof" 256 (Level.dof (Level.create_nd ~dims:2 ~n:16));
  check_int "4d dof" 4096 (Level.dof (Level.create_nd ~dims:4 ~n:8))

let () =
  Alcotest.run "sf_hpgmg_nd"
    [
      ( "structure",
        [
          Alcotest.test_case "axis names" `Quick test_axis_names;
          Alcotest.test_case "group shapes" `Quick test_group_shapes;
          Alcotest.test_case "level dof" `Quick test_level_dof;
        ] );
      ( "solver",
        [
          Alcotest.test_case "1-d poisson" `Quick test_1d_poisson;
          Alcotest.test_case "2-d poisson + order" `Quick
            test_2d_poisson_convergence_and_order;
          Alcotest.test_case "4-d poisson" `Quick test_4d_poisson;
          Alcotest.test_case "2-d variable coefficients" `Quick
            test_variable_coefficients_2d;
          Alcotest.test_case "2-d derived choices converge" `Quick
            test_2d_derived_choices_converge;
          Alcotest.test_case "smoother plan names running kernel" `Quick
            test_smoother_plan_names_running_kernel;
          Alcotest.test_case "jacobi relaxes the variable operator" `Quick
            test_jacobi_variable_beta;
        ] );
      ( "problem",
        [
          Alcotest.test_case "setup_variable draw order" `Quick
            test_setup_variable_order;
        ] );
    ]
