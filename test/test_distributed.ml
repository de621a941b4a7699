open Sf_util
open Sf_mesh
open Snowflake
open Sf_analysis
open Sf_backends
open Sf_hpgmg
open Sf_distributed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_structure () =
  let t = Spmd.create ~rank_grid:[ 2; 2 ] ~local_n:4 in
  check_int "ranks" 4 (List.length (Spmd.ranks t));
  (* per exchange: 4 ranks x 2 axes x 2 sides *)
  check_int "exchange stencils" 16
    (List.length (Spmd.exchange_stencils t ~base:"u"));
  let group = Spmd.gsrb_smooth_group t in
  check_int "smooth group size" ((2 * 16) + (2 * 4)) (Group.length group);
  Alcotest.(check string) "rank naming" "u@1_0"
    (Spmd.rank_name "u" (Ivec.of_list [ 1; 0 ]))

let test_waves () =
  (* all communication of one exchange forms a single wave: halo copies and
     physical BCs are mutually independent; then all red sweeps together,
     then the second exchange, then black *)
  let t = Spmd.create ~rank_grid:[ 2; 2 ] ~local_n:4 in
  let group = Spmd.gsrb_smooth_group t in
  let waves = Schedule.greedy_waves ~shape:t.Spmd.shape group in
  check_int "four waves" 4 (List.length waves);
  Alcotest.(check (list int)) "wave sizes" [ 16; 4; 16; 4 ]
    (List.map List.length waves)

let test_plan_conflict_free () =
  let t = Spmd.create ~rank_grid:[ 2; 2 ] ~local_n:4 in
  let group = Spmd.gsrb_smooth_group t in
  List.iter
    (fun (w : Plan.wave) ->
      match Schedule_check.wave_conflicts w.Plan.tasks with
      | [] -> ()
      | c :: _ ->
          Alcotest.failf "spmd plan conflict: %s"
            (Schedule_check.conflict_to_string c))
    (Jit.lower Jit.Openmp ~shape:t.Spmd.shape group).Plan.waves

(* Reference single-domain run of the same (rank-unqualified) groups on a
   possibly non-cubic global box. *)
let single_domain ~dims ~extents =
  let shape = Array.map (fun n -> n + 2) extents in
  let grids = Grids.create () in
  List.iter
    (fun base ->
      let m = Mesh.create shape in
      if String.length base >= 5 && String.sub base 0 5 = "beta_" then
        Mesh.fill m 1.;
      Grids.add grids base m)
    ([ "u"; "f"; "res"; "tmp"; "dinv" ]
    @ List.init dims (fun a -> Nd.beta_name a));
  (shape, grids)

let beta_fn coords =
  1. +. (0.3 *. Array.fold_left (fun acc x -> acc *. sin ((3. *. x) +. 0.5)) 1. coords)

let f_fn coords = Array.fold_left (fun acc x -> acc +. (x *. x)) (-0.7) coords
let u_fn coords = Array.fold_left (fun acc x -> acc +. sin (5. *. x)) 0.2 coords

let setup_pair ~rank_grid ~local_n =
  let t = Spmd.create ~rank_grid ~local_n in
  let dims = List.length rank_grid in
  let extents =
    Array.of_list (List.map (fun r -> r * local_n) rank_grid)
  in
  let shape, grids = single_domain ~dims ~extents in
  (* identical problem data on both sides, via global coordinates *)
  let h = 1. /. float_of_int extents.(0) in
  Spmd.set_beta t beta_fn;
  Spmd.fill_interior t ~base:"f" f_fn;
  Spmd.fill_interior t ~base:"u" u_fn;
  (* single-domain side *)
  let cell p = Array.map (fun i -> (float_of_int i -. 0.5) *. h) p in
  let iter_interior fn =
    Domain.iter
      (Domain.resolve_rect ~shape
         (Domain.rect
            ~lo:(List.init dims (fun _ -> 1))
            ~hi:(List.init dims (fun _ -> -1))
            ()))
      fn
  in
  iter_interior (fun p ->
      Mesh.set (Grids.find grids "f") p (f_fn (cell p));
      Mesh.set (Grids.find grids "u") p (u_fn (cell p)));
  List.iteri
    (fun axis _ ->
      Mesh.fill_with (Grids.find grids (Nd.beta_name axis)) (fun p ->
          let coords =
            Array.mapi
              (fun a i ->
                if a = axis then float_of_int (i - 1) *. h
                else (float_of_int i -. 0.5) *. h)
              p
          in
          beta_fn coords))
    rank_grid;
  let params = Spmd.params t in
  let run_single group =
    (Jit.compile Jit.Compiled ~shape group).Kernel.run ~params grids
  in
  run_single (Group.make ~label:"dinv1" [ Nd.dinv_setup ~dims ]);
  (t, grids, run_single)

let test_smooth_matches_single_domain_2d () =
  let t, grids, run_single = setup_pair ~rank_grid:[ 2; 2 ] ~local_n:8 in
  let dims = 2 in
  for _ = 1 to 3 do
    (Jit.compile Jit.Compiled ~shape:t.Spmd.shape (Spmd.gsrb_smooth_group t)).Kernel.run
      ~params:(Spmd.params t) t.Spmd.grids;
    run_single (Nd.gsrb_smooth ~dims)
  done;
  let gathered = Spmd.gather t ~base:"u" in
  (* compare interiors only: gathered ghosts are zero while the
     single-domain ghosts hold boundary-condition values *)
  let single = Grids.find grids "u" in
  let d = ref 0. in
  Domain.iter
    (Domain.resolve_rect ~shape:(Mesh.shape single)
       (Domain.rect ~lo:[ 1; 1 ] ~hi:[ -1; -1 ] ()))
    (fun p ->
      d := Float.max !d (Float.abs (Mesh.get gathered p -. Mesh.get single p)));
  check_bool (Printf.sprintf "2-d smooth agrees (diff %.2e)" !d) true
    (!d < 1e-12)

let test_residual_matches_single_domain_3d_noncubic () =
  (* a non-cubic 2x1x2 rank grid: global 8x4x8 box *)
  let t, grids, run_single = setup_pair ~rank_grid:[ 2; 1; 2 ] ~local_n:4 in
  let dims = 3 in
  (Jit.compile Jit.Compiled ~shape:t.Spmd.shape (Spmd.residual_group t)).Kernel.run
    ~params:(Spmd.params t) t.Spmd.grids;
  run_single
    (Group.make ~label:"res1"
       (Nd.boundaries ~dims ~grid:"u" @ [ Nd.residual_vc ~dims ]));
  let gathered = Spmd.gather t ~base:"res" in
  let single = Grids.find grids "res" in
  let d = ref 0. in
  Domain.iter
    (Domain.resolve_rect ~shape:(Mesh.shape single)
       (Domain.rect ~lo:[ 1; 1; 1 ] ~hi:[ -1; -1; -1 ] ()))
    (fun p ->
      d := Float.max !d (Float.abs (Mesh.get gathered p -. Mesh.get single p)));
  check_bool (Printf.sprintf "3-d residual agrees (diff %.2e)" !d) true
    (!d < 1e-12)

let test_distributed_relaxation_converges () =
  let t = Spmd.create ~rank_grid:[ 2; 2 ] ~local_n:8 in
  Spmd.set_beta t (fun _ -> 1.);
  Spmd.fill_interior t ~base:"f" (fun c ->
      Nd.rhs_sine ~dims:2 c);
  let smooth =
    Jit.compile Jit.Compiled ~shape:t.Spmd.shape (Spmd.gsrb_smooth_group t)
  in
  let residual =
    Jit.compile Jit.Compiled ~shape:t.Spmd.shape (Spmd.residual_group t)
  in
  let res_norm () =
    residual.Kernel.run ~params:(Spmd.params t) t.Spmd.grids;
    Mesh.norm_l2 (Spmd.gather t ~base:"res")
  in
  let r0 = res_norm () in
  for _ = 1 to 300 do
    smooth.Kernel.run ~params:(Spmd.params t) t.Spmd.grids
  done;
  let r1 = res_norm () in
  check_bool
    (Printf.sprintf "distributed relaxation converged (%.2e -> %.2e)" r0 r1)
    true
    (r1 < r0 /. 1e4)

let test_gather_scatter_roundtrip () =
  let t = Spmd.create ~rank_grid:[ 3; 2 ] ~local_n:4 in
  let global = Mesh.random ~seed:9 [| 14; 10 |] in
  Spmd.scatter t ~base:"u" global;
  let back = Spmd.gather t ~base:"u" in
  let d = ref 0. in
  Domain.iter
    (Domain.resolve_rect ~shape:[| 14; 10 |]
       (Domain.rect ~lo:[ 1; 1 ] ~hi:[ -1; -1 ] ()))
    (fun p -> d := Float.max !d (Float.abs (Mesh.get back p -. Mesh.get global p)));
  check_bool "roundtrip" true (!d = 0.)

(* ------------------------------------------------- pipelined execution *)

let fresh_spmd ~rank_grid ~local_n =
  let t = Spmd.create ~rank_grid ~local_n in
  Spmd.set_beta t beta_fn;
  Spmd.fill_interior t ~base:"f" f_fn;
  Spmd.fill_interior t ~base:"u" u_fn;
  t

let mesh_bitwise_equal a b =
  let d = ref true in
  Mesh.iteri a (fun p v -> if not (Float.equal v (Mesh.get b p)) then d := false);
  !d

let test_pipeline_certificate () =
  let t = Spmd.create ~rank_grid:[ 2 ] ~local_n:8 in
  let group = Spmd.gsrb_smooth_group t in
  let cert, diags = Pipeline.certify t group in
  (match cert with
  | None ->
      Alcotest.failf "2-rank GSRB should certify: %s" (Diagnostics.render diags)
  | Some c ->
      check_int "stages" 4 c.Pipeline_check.stages;
      check_int "ranks" 2 (List.length c.Pipeline_check.ranks);
      (* two halo faces per exchange, two exchanges *)
      check_int "channels" 4 (List.length c.Pipeline_check.channels);
      List.iter
        (fun (ch : Pipeline_check.channel) ->
          check_bool "depth positive" true (ch.Pipeline_check.depth >= 1))
        c.Pipeline_check.channels);
  check_bool "SF030 note present" true
    (List.exists (fun d -> d.Diagnostics.code = "SF030") diags)

let test_pipeline_depth0_is_sf031 () =
  let t = Spmd.create ~rank_grid:[ 2 ] ~local_n:8 in
  let group = Spmd.gsrb_smooth_group t in
  let cert, diags = Pipeline.certify ~depth_override:0 t group in
  check_bool "no certificate at depth 0" true (cert = None);
  match List.find_opt (fun d -> d.Diagnostics.code = "SF031") diags with
  | None -> Alcotest.failf "expected SF031: %s" (Diagnostics.render diags)
  | Some d ->
      check_bool "witness cycle printed" true
        (Diagnostics.is_error d
        &&
        let msg = d.Diagnostics.message in
        (* the witness names unrolled (wave, rank, stage) nodes *)
        String.length msg > 0
        && Option.is_some (String.index_opt msg '>')
        &&
        let has_sub sub =
          let n = String.length msg and m = String.length sub in
          let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
          go 0
        in
        has_sub "zero-slack cycle" && has_sub "wave ")

let pipeline_matches_bulk ~rank_grid ~local_n ~sweeps =
  let tb = fresh_spmd ~rank_grid ~local_n in
  for _ = 1 to sweeps do
    Spmd.run_group tb (Spmd.gsrb_smooth_group tb)
  done;
  let bulk = Spmd.gather tb ~base:"u" in
  List.iter
    (fun workers ->
      let tp = fresh_spmd ~rank_grid ~local_n in
      let config = Config.with_workers workers Config.default in
      let p = Pipeline.create ~config tp (Spmd.gsrb_smooth_group tp) in
      Pipeline.run ~sweeps p;
      let piped = Spmd.gather tp ~base:"u" in
      check_bool
        (Printf.sprintf "pipeline = bulk at %d worker(s)" workers)
        true
        (mesh_bitwise_equal bulk piped))
    [ 1; 4 ]

let test_pipeline_matches_bulk_1d () =
  pipeline_matches_bulk ~rank_grid:[ 2 ] ~local_n:8 ~sweeps:3

let test_pipeline_matches_bulk_2d_noncubic () =
  pipeline_matches_bulk ~rank_grid:[ 2; 1 ] ~local_n:6 ~sweeps:2

let test_pipeline_sf034_gate () =
  let t = fresh_spmd ~rank_grid:[ 2 ] ~local_n:8 in
  let p = Pipeline.create t (Spmd.gsrb_smooth_group t) in
  Pipeline.inject_undersize p;
  match Pipeline.run ~sweeps:1 p with
  | () -> Alcotest.fail "undersized ring executed"
  | exception Jit.Certification_failed { backend; diagnostics; _ } ->
      Alcotest.(check string) "backend" "pipeline" backend;
      check_bool "SF034 reported" true
        (List.exists (fun d -> d.Diagnostics.code = "SF034") diagnostics)

let test_pipeline_refuses_uncertified () =
  (* a cross-rank read buried inside arithmetic is not a streamable halo
     copy: certification fails with SF032 and create must refuse *)
  let dom = Domain.of_rect (Domain.rect ~lo:[ 1 ] ~hi:[ -1 ] ()) in
  let bad =
    Group.make ~label:"bad_pipe"
      [
        Stencil.make ~label:"mix@0" ~output:"a@0"
          ~expr:(Expr.neg (Expr.read "a@1" [| 8 |]))
          ~domain:dom ();
        Stencil.make ~label:"write@1" ~output:"a@1"
          ~expr:(Expr.read "a@1" [| 0 |])
          ~domain:dom ();
      ]
  in
  let t = Spmd.create ~rank_grid:[ 2 ] ~local_n:8 in
  Grids.add t.Spmd.grids "a@0" (Mesh.create t.Spmd.shape);
  Grids.add t.Spmd.grids "a@1" (Mesh.create t.Spmd.shape);
  match Pipeline.create t bad with
  | _ -> Alcotest.fail "uncertified plan accepted"
  | exception Jit.Certification_failed { backend; diagnostics; _ } ->
      Alcotest.(check string) "backend" "pipeline" backend;
      check_bool "SF032 reported" true
        (List.exists (fun d -> d.Diagnostics.code = "SF032") diagnostics)

let test_create_validation () =
  (try
     ignore (Spmd.create ~rank_grid:[ 2; 0 ] ~local_n:4);
     Alcotest.fail "zero rank accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Spmd.create ~rank_grid:[ 2 ] ~local_n:3);
    Alcotest.fail "odd local_n accepted"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "sf_distributed"
    [
      ( "structure",
        [
          Alcotest.test_case "counts and names" `Quick test_structure;
          Alcotest.test_case "communication waves" `Quick test_waves;
          Alcotest.test_case "plan conflict-free" `Quick
            test_plan_conflict_free;
          Alcotest.test_case "gather/scatter" `Quick
            test_gather_scatter_roundtrip;
          Alcotest.test_case "validation" `Quick test_create_validation;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "2-d smooth = single domain" `Quick
            test_smooth_matches_single_domain_2d;
          Alcotest.test_case "3-d residual = single domain" `Quick
            test_residual_matches_single_domain_3d_noncubic;
          Alcotest.test_case "relaxation converges" `Quick
            test_distributed_relaxation_converges;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "certificate shape" `Quick
            test_pipeline_certificate;
          Alcotest.test_case "depth 0 is SF031 with witness" `Quick
            test_pipeline_depth0_is_sf031;
          Alcotest.test_case "1-d pipeline = bulk (1 and 4 workers)" `Quick
            test_pipeline_matches_bulk_1d;
          Alcotest.test_case "2x1 non-cubic pipeline = bulk" `Quick
            test_pipeline_matches_bulk_2d_noncubic;
          Alcotest.test_case "undersized ring trips SF034" `Quick
            test_pipeline_sf034_gate;
          Alcotest.test_case "uncertified plan refused" `Quick
            test_pipeline_refuses_uncertified;
        ] );
    ]
