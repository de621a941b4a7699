open Sf_util
open Sf_mesh
open Snowflake
open Sf_backends

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-12))

module Metrics = Sf_trace.Metrics

let count name = Atomic.get (Metrics.counter name)
let iv = Ivec.of_list

(* ---------------------------------------------------------------- Pool *)

let test_pool_runs_all () =
  let hits = Array.make 100 0 in
  let tasks = Array.init 100 (fun i () -> hits.(i) <- hits.(i) + 1) in
  Pool.run_tasks (Pool.create ~workers:4) tasks;
  check_bool "each task exactly once" true (Array.for_all (( = ) 1) hits)

let test_pool_sequential () =
  let order = ref [] in
  let tasks = Array.init 5 (fun i () -> order := i :: !order) in
  Pool.run_tasks Pool.sequential tasks;
  Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_pool_exception () =
  let tasks = [| (fun () -> ()); (fun () -> failwith "boom") |] in
  (try
     Pool.run_tasks (Pool.create ~workers:3) tasks;
     Alcotest.fail "exception swallowed"
   with Failure m -> Alcotest.(check string) "msg" "boom" m);
  try
    Pool.run_tasks Pool.sequential tasks;
    Alcotest.fail "exception swallowed (seq)"
  with Failure _ -> ()

let test_parallel_for () =
  let acc = Atomic.make 0 in
  Pool.parallel_for (Pool.create ~workers:3) 50 (fun i ->
      ignore (Atomic.fetch_and_add acc i));
  check_int "sum" (50 * 49 / 2) (Atomic.get acc)

let test_parallel_range_chunks () =
  let seen = Array.make 100 0 in
  Pool.parallel_range ~grain:7 (Pool.create ~workers:4) 100 (fun lo hi ->
      check_bool "grain bound" true (hi - lo <= 7 && lo < hi);
      for i = lo to hi - 1 do
        seen.(i) <- seen.(i) + 1
      done);
  check_bool "covers [0,n) exactly once" true (Array.for_all (( = ) 1) seen);
  (* n = 0 is a no-op; grain larger than n gives one inline chunk *)
  Pool.parallel_range (Pool.create ~workers:4) 0 (fun _ _ ->
      Alcotest.fail "called on empty range");
  let calls = ref 0 in
  Pool.parallel_range ~grain:1000 (Pool.create ~workers:4) 5 (fun lo hi ->
      incr calls;
      check_int "whole range" 5 (hi - lo));
  check_int "single chunk" 1 !calls

let test_pool_exception_leaves_pool_reusable () =
  let pool = Pool.create ~workers:4 in
  let tasks = Array.init 16 (fun i () -> if i = 5 then failwith "kaboom") in
  (try
     Pool.run_tasks pool tasks;
     Alcotest.fail "exception swallowed"
   with Failure m -> Alcotest.(check string) "msg" "kaboom" m);
  (* the join aborted but the worker domains survive: the same pool must
     execute the next batch completely *)
  let hits = Array.make 64 0 in
  Pool.run_tasks pool (Array.init 64 (fun i () -> hits.(i) <- hits.(i) + 1));
  check_bool "reusable after failure" true (Array.for_all (( = ) 1) hits)

let test_pool_nested_runs_inline () =
  (* a task that itself submits a batch must not deadlock on the shared
     publication slot: re-entrant submissions run inline *)
  let pool = Pool.create ~workers:4 in
  let inner = Atomic.make 0 in
  let outer =
    Array.init 4 (fun _ () ->
        Pool.run_tasks pool (Array.init 8 (fun _ () -> Atomic.incr inner)))
  in
  Pool.run_tasks pool outer;
  check_int "nested tasks all ran" 32 (Atomic.get inner)

let test_pool_abort_skips_counted () =
  (* regression: an aborted batch used to look indistinguishable from a
     completed one — the drained tasks must show up in stats as [skipped] *)
  let pool = Pool.create ~workers:4 in
  Metrics.reset ();
  let executed = Atomic.make 0 in
  let tasks =
    Array.init 512 (fun i () ->
        if i = 0 then failwith "abort"
        else begin
          (* a little work so the whole batch cannot drain before the
             failure flag is published *)
          for _ = 1 to 200 do
            ignore (Sys.opaque_identity i)
          done;
          Atomic.incr executed
        end)
  in
  (try
     Pool.run_tasks pool tasks;
     Alcotest.fail "exception swallowed"
   with Failure m -> Alcotest.(check string) "msg" "abort" m);
  check_bool "abort visibly skipped tasks" true (count "pool.skipped" > 0);
  check_int "skipped + executed accounts for every non-failing task" 511
    (count "pool.skipped" + Atomic.get executed);
  (* pool.chunks counts every drained chunk, run or skipped *)
  check_int "every chunk drained is counted" 512 (count "pool.chunks")

let test_pool_reentrant_exception () =
  (* a nested (inline) submission that raises must propagate through both
     joins, and the pool must survive the abort — at every worker count *)
  List.iter
    (fun workers ->
      let pool = Pool.create ~workers in
      let outer =
        Array.init 4 (fun o () ->
            if o = 0 then
              Pool.run_tasks pool
                [| (fun () -> ()); (fun () -> failwith "inner") |])
      in
      (try
         Pool.run_tasks pool outer;
         Alcotest.fail
           (Printf.sprintf "exception swallowed (workers=%d)" workers)
       with Failure m -> Alcotest.(check string) "msg" "inner" m);
      let hits = Array.make 32 0 in
      Pool.run_tasks pool
        (Array.init 32 (fun i () -> hits.(i) <- hits.(i) + 1));
      check_bool
        (Printf.sprintf "usable after abort (workers=%d)" workers)
        true
        (Array.for_all (( = ) 1) hits))
    [ 1; 2; 4 ]

let test_pool_shutdown_idempotent () =
  Pool.shutdown ();
  Pool.shutdown ();
  (* the pool is still usable afterwards: workers respawn lazily *)
  let acc = Atomic.make 0 in
  Pool.parallel_for (Pool.create ~workers:3) 100 (fun i ->
      ignore (Atomic.fetch_and_add acc i));
  check_int "sum after shutdown" (100 * 99 / 2) (Atomic.get acc);
  Pool.shutdown ()

let test_pool_serial_cutoff () =
  let pool = Pool.create ~workers:4 |> Pool.with_serial_cutoff 1000 in
  Metrics.reset ();
  let ran = Array.make 4 0 in
  let tasks () = Array.init 4 (fun i () -> ran.(i) <- ran.(i) + 1) in
  Pool.run_tasks ~points:10 pool (tasks ());
  check_int "below cutoff: no dispatch" 0 (count "pool.batches");
  Pool.run_tasks ~points:100_000 pool (tasks ());
  check_int "above cutoff: dispatched" 1 (count "pool.batches");
  (* no hint means no cutoff *)
  Pool.run_tasks pool (tasks ());
  check_int "no hint: dispatched" 2 (count "pool.batches");
  check_bool "every batch ran fully" true (Array.for_all (( = ) 3) ran)

let test_parallel_range_serial_cutoff () =
  (* regression: parallel_range must honour the view's serial cutoff the
     same way run_tasks does with a ~points hint — n counts as the range's
     lattice points.  Before the fix the cutoff was never consulted and a
     100-point range was published to the pool. *)
  let pool = Pool.create ~workers:4 |> Pool.with_serial_cutoff 1000 in
  Metrics.reset ();
  let seen = Array.make 100 0 in
  Pool.parallel_range ~grain:7 pool 100 (fun lo hi ->
      check_bool "grain bound" true (hi - lo <= 7 && lo < hi);
      for i = lo to hi - 1 do
        seen.(i) <- seen.(i) + 1
      done);
  check_bool "covers [0,n) exactly once" true (Array.for_all (( = ) 1) seen);
  check_int "below cutoff: no dispatch" 0 (count "pool.batches");
  check_int "below cutoff: counted inline" 1 (count "pool.inline");
  (* above the cutoff the range still goes to the pool *)
  let acc = Atomic.make 0 in
  Pool.parallel_range pool 5000 (fun lo hi ->
      ignore (Atomic.fetch_and_add acc (hi - lo)));
  check_int "above cutoff: dispatched" 1 (count "pool.batches");
  check_int "above cutoff: covered" 5000 (Atomic.get acc)

let test_metrics_reset_zeroes_counters () =
  (* regression: the pool's reset once zeroed every counter except
     spawned, so a post-reset report mixed lifetime spawns with
     per-session numbers.  One Metrics.reset now covers every counter. *)
  let pool = Pool.create ~workers:4 in
  (* park-and-join any live workers so the next dispatch must respawn *)
  Pool.shutdown ();
  Metrics.reset ();
  Pool.run_tasks pool (Array.init 16 (fun _ () -> ()));
  Pool.run_tasks pool [| (fun () -> ()) |];
  check_bool "workers were spawned" true (count "pool.spawned" > 0);
  let live () =
    (List.assoc "pool.live_domains" (Metrics.snapshot ()).Metrics.gauges)
      .Metrics.level
  in
  let live_before = live () in
  check_bool "workers are live" true (live_before > 0);
  Metrics.reset ();
  List.iter
    (fun (name, v) -> check_int (name ^ " reset") 0 v)
    (Metrics.snapshot ()).Metrics.counters;
  (* the gauge survives: hot workers stay parked, and the next batch
     reuses them without new spawns *)
  check_int "pool.live_domains survives" live_before (live ());
  Pool.run_tasks pool (Array.init 16 (fun _ () -> ()));
  check_int "hot workers reused, none spawned" 0 (count "pool.spawned")

(* -------------------------------------------------------------- Tiling *)

let resolved lo hi stride shape =
  Domain.resolve_rect ~shape:(iv shape)
    (Domain.rect ~stride ~lo ~hi ())

let tiles_partition_exactly original tiles =
  let pts r = List.map Ivec.to_list (Domain.to_list r) in
  let all = List.concat_map pts tiles |> List.sort compare in
  let expected = pts original |> List.sort compare in
  all = expected

let test_split_partitions () =
  let r = resolved [ 1; 1 ] [ -1; -1 ] [ 1; 1 ] [ 10; 13 ] in
  let tiles = Tiling.split ~tile:[ 3; 4 ] r in
  check_bool "partition" true (tiles_partition_exactly r tiles);
  check_int "points preserved" (Domain.npoints r) (Domain.npoints_union tiles)

let test_split_strided () =
  let r = resolved [ 1; 2 ] [ 9; 9 ] [ 2; 3 ] [ 10; 10 ] in
  let tiles = Tiling.split ~tile:[ 2; 2 ] r in
  check_bool "strided partition" true (tiles_partition_exactly r tiles)

let test_split_outer () =
  let r = resolved [ 0; 0 ] [ 8; 8 ] [ 1; 1 ] [ 8; 8 ] in
  let tiles = Tiling.split_outer ~chunks:3 r in
  check_bool "outer partition" true (tiles_partition_exactly r tiles);
  check_int "three chunks" 3 (List.length tiles)

let test_tall_skinny () =
  let r = resolved [ 0; 0; 0 ] [ 4; 8; 8 ] [ 1; 1; 1 ] [ 4; 8; 8 ] in
  let tiles = Tiling.tall_skinny ~tile:(4, 4) r in
  check_bool "ts partition" true (tiles_partition_exactly r tiles);
  (* each tile must span the full outermost axis: the roll *)
  List.iter
    (fun t ->
      check_int "full z extent" 4 (Domain.counts t).(0))
    tiles;
  check_int "2x2 tiles" 4 (List.length tiles)

let test_split_oversized_tile () =
  let r = resolved [ 0 ] [ 5 ] [ 1 ] [ 5 ] in
  check_int "single tile" 1 (List.length (Tiling.split ~tile:[ 100 ] r))

let test_multicolor_interleave () =
  let shape = [ 9; 9 ] in
  let red0 = resolved [ 1; 1 ] [ -1; -1 ] [ 2; 2 ] shape in
  let red1 = resolved [ 2; 2 ] [ -1; -1 ] [ 2; 2 ] shape in
  let merged = Multicolor.interleave [ [ red0 ]; [ red1 ] ] in
  check_int "both kept" 2 (List.length merged);
  (* sorted by origin: (1,1) before (2,2) *)
  Alcotest.(check (list int)) "first origin" [ 1; 1 ]
    (Ivec.to_list (List.hd merged).Domain.rlo)

(* ------------------------------------------------- backend equivalence *)

let five_point_weights () =
  Weights.of_nested
    (Weights.A
       [
         A [ W 0.; W 1.; W 0. ];
         A [ W 1.; W (-4.); W 1. ];
         A [ W 0.; W 1.; W 0. ];
       ])

let fresh_grids_2d ?(seed = 11) shape =
  Grids.of_list
    [
      ("u", Mesh.random ~seed shape);
      ("v", Mesh.random ~seed:(seed + 1) shape);
      ("out", Mesh.create shape);
      ("mesh", Mesh.random ~seed:(seed + 2) shape);
    ]

let run_on_backend ?config ?params backend ~shape group grids =
  let kernel = Jit.compile ?config backend ~shape group in
  kernel.Kernel.run ?params grids;
  grids

let assert_all_backends_agree ?params ~shape group =
  let reference =
    run_on_backend Jit.Interp ?params ~shape group (fresh_grids_2d shape)
  in
  List.iter
    (fun (backend, config) ->
      let got =
        run_on_backend backend ?params ~config ~shape group
          (fresh_grids_2d shape)
      in
      List.iter
        (fun name ->
          match
            Mesh.first_mismatch ~ulps:0 ~atol:0.
              (Grids.find reference name) (Grids.find got name)
          with
          | None -> ()
          | Some (p, expect, got) ->
              Alcotest.failf "%s differs from interp on %s at %s: %.17g vs \
                              %.17g (%d ulps)"
                (Jit.backend_name backend) name (Ivec.to_string p) expect got
                (Fcmp.ulp_diff expect got))
        (Grids.names reference))
    [
      (Jit.Compiled, Config.default);
      (Jit.Openmp, Config.default);
      (Jit.Openmp, Config.(with_workers 3 default));
      (Jit.Openmp, { Config.default with tile = Some [ 3; 5 ]; workers = 2 });
      (Jit.Openmp, { Config.default with multicolor = true });
      (Jit.Openmp, { Config.default with schedule = Config.Dag_levels });
      (Jit.Opencl, Config.default);
      (Jit.Opencl, Config.(with_workers 2 default));
      (Jit.Opencl, { Config.default with tall_skinny = (2, 3) });
    ]

let test_equiv_laplacian () =
  let shape = iv [ 12; 14 ] in
  let s =
    Stencil.make ~label:"lap" ~output:"out"
      ~expr:(Component.to_expr ~grid:"u" (five_point_weights ()))
      ~domain:(Domain.interior 2 ~ghost:1)
      ()
  in
  assert_all_backends_agree ~shape (Group.make ~label:"lap" [ s ])

let test_equiv_multi_input () =
  let shape = iv [ 10; 10 ] in
  let expr =
    Expr.(
      (Component.to_expr ~grid:"u" (five_point_weights ()) *: param "alpha")
      +: (read "v" (iv [ 0; 0 ]) *: const 0.5)
      -: read "u" (iv [ 1; -1 ]))
  in
  let s =
    Stencil.make ~label:"multi" ~output:"out" ~expr
      ~domain:(Domain.interior 2 ~ghost:1)
      ()
  in
  assert_all_backends_agree ~params:[ ("alpha", 0.7) ] ~shape
    (Group.make ~label:"multi" [ s ])

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

let test_equiv_gsrb_in_place () =
  assert_all_backends_agree ~shape:(iv [ 11; 13 ]) (gsrb_group ())

let test_equiv_strided_restriction () =
  (* 2-D full-weighting style restriction using affine reads *)
  let shape_coarse = iv [ 6; 6 ] in
  let rd di dj =
    Expr.read_affine "fine"
      (Affine.make ~scale:(iv [ 2; 2 ]) ~offset:(iv [ di; dj ]))
  in
  let expr =
    Expr.(
      (rd 0 0 +: rd 0 1 +: rd 1 0 +: rd 1 1) *: const 0.25)
  in
  let s =
    Stencil.make ~label:"restrict" ~output:"coarse" ~expr
      ~domain:(Domain.of_rect (Domain.rect ~lo:[ 0; 0 ] ~hi:[ 6; 6 ] ()))
      ()
  in
  let group = Group.make ~label:"restrict" [ s ] in
  let mk_grids () =
    Grids.of_list
      [
        ("fine", Mesh.random ~seed:5 (iv [ 12; 12 ]));
        ("coarse", Mesh.create shape_coarse);
      ]
  in
  let ref_grids = mk_grids () in
  (Jit.compile Jit.Interp ~shape:shape_coarse group).Kernel.run ref_grids;
  List.iter
    (fun backend ->
      let grids = mk_grids () in
      (Jit.compile backend ~shape:shape_coarse group).Kernel.run grids;
      check_bool
        (Jit.backend_name backend ^ " matches")
        true
        (Mesh.close ~ulps:0 ~atol:0.
           (Grids.find ref_grids "coarse")
           (Grids.find grids "coarse")))
    [ Jit.Compiled; Jit.Openmp; Jit.Opencl ];
  (* also spot-check one value by hand *)
  let fine = Grids.find ref_grids "fine" in
  let expect =
    0.25
    *. (Mesh.get fine (iv [ 4; 6 ])
       +. Mesh.get fine (iv [ 4; 7 ])
       +. Mesh.get fine (iv [ 5; 6 ])
       +. Mesh.get fine (iv [ 5; 7 ]))
  in
  check_float "hand value" expect
    (Mesh.get (Grids.find ref_grids "coarse") (iv [ 2; 3 ]))

let test_equiv_interpolation_out_map () =
  (* fine[2y+p] += coarse[y]: one stencil per parity, non-identity out_map *)
  let shape_iter = iv [ 6 ] in
  let mk p =
    Stencil.make
      ~label:(Printf.sprintf "interp_%d" p)
      ~output:"fine"
      ~out_map:(Affine.make ~scale:(iv [ 2 ]) ~offset:(iv [ p ]))
      ~expr:(Expr.read "coarse" (iv [ 0 ]))
      ~domain:(Domain.of_rect (Domain.rect ~lo:[ 0 ] ~hi:[ 6 ] ()))
      ()
  in
  let group = Group.make ~label:"interp" [ mk 0; mk 1 ] in
  let mk_grids () =
    Grids.of_list
      [
        ("coarse", Mesh.random ~seed:9 (iv [ 6 ]));
        ("fine", Mesh.create (iv [ 12 ]));
      ]
  in
  let ref_grids = mk_grids () in
  (Jit.compile Jit.Interp ~shape:shape_iter group).Kernel.run ref_grids;
  let coarse = Grids.find ref_grids "coarse" in
  let fine = Grids.find ref_grids "fine" in
  for y = 0 to 5 do
    check_float "even" (Mesh.get coarse (iv [ y ])) (Mesh.get fine (iv [ 2 * y ]));
    check_float "odd" (Mesh.get coarse (iv [ y ]))
      (Mesh.get fine (iv [ (2 * y) + 1 ]))
  done;
  List.iter
    (fun backend ->
      let grids = mk_grids () in
      (Jit.compile backend ~shape:shape_iter group).Kernel.run grids;
      check_bool
        (Jit.backend_name backend ^ " matches")
        true
        (Mesh.close ~ulps:0 ~atol:0. fine (Grids.find grids "fine")))
    [ Jit.Compiled; Jit.Openmp; Jit.Opencl ]

(* random-stencil property: all backends match the interpreter *)

let random_stencil_prop =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 10000 in
      let* ghost = int_range 1 2 in
      let* colored = bool in
      let* coeffs = array_size (return 9) (float_range (-2.) 2.) in
      return (seed, ghost, colored, coeffs))
  in
  let arb =
    QCheck.make
      ~print:(fun (seed, ghost, colored, _) ->
        Printf.sprintf "seed=%d ghost=%d colored=%b" seed ghost colored)
      gen
  in
  QCheck.Test.make ~name:"random stencils: all backends = interp" ~count:40
    arb
    (fun (seed, ghost, colored, coeffs) ->
      let shape = iv [ 9; 11 ] in
      let w =
        Weights.of_alist
          (List.concat_map
             (fun di ->
               List.map
                 (fun dj ->
                   ( [ di; dj ],
                     Expr.const coeffs.(((di + 1) * 3) + dj + 1) ))
                 [ -1; 0; 1 ])
             [ -1; 0; 1 ])
      in
      let domain =
        if colored then Domain.colored 2 ~ghost ~color:0 ~ncolors:2
        else Domain.interior 2 ~ghost
      in
      let s =
        Stencil.make ~label:"rand" ~output:"out"
          ~expr:
            Expr.(
              Component.to_expr ~grid:"u" w
              +: (read "v" (iv [ 0; 0 ]) *: const 0.25))
          ~domain ()
      in
      let group = Group.make ~label:"rand" [ s ] in
      let run backend config =
        let grids = fresh_grids_2d ~seed shape in
        (Jit.compile ~config backend ~shape group).Kernel.run grids;
        Grids.find grids "out"
      in
      let reference = run Jit.Interp Config.default in
      List.for_all
        (fun (b, c) -> Mesh.close ~ulps:0 ~atol:0. reference (run b c))
        [
          (Jit.Compiled, Config.default);
          (Jit.Openmp, Config.with_workers 3 Config.default);
          (Jit.Opencl, { Config.default with tall_skinny = (2, 4) });
        ])

(* ------------------------------------------------------------ polyform *)

(* deterministic pseudo-random value for a (grid, map) read *)
let read_value (g, m) =
  let h = Hashc.combine (Hashc.string g) (Affine.hash m) land 0xffff in
  (float_of_int h /. 65536.) -. 0.5

let test_polyform_laplacian () =
  let e =
    Expr.(
      (read "u" (iv [ -1 ]) +: read "u" (iv [ 1 ]))
      -: (const 2. *: read "u" (iv [ 0 ])))
  in
  match Polyform.of_expr ~params:(fun _ -> nan) e with
  | None -> Alcotest.fail "linear expr not recognised"
  | Some p ->
      check_int "three monomials" 3 (List.length p.Polyform.monos);
      check_bool "all degree 1" true
        (List.for_all
           (fun m -> List.length m.Polyform.reads = 1)
           p.Polyform.monos)

let test_polyform_param_resolution () =
  let e = Expr.(param "a" *: (read "u" (iv [ 0 ]) +: param "b")) in
  match Polyform.of_expr ~params:(fun p -> if p = "a" then 2. else 3.) e with
  | None -> Alcotest.fail "not recognised"
  | Some p ->
      check_float "const term = a*b" 6. p.Polyform.const;
      (match p.Polyform.monos with
      | [ { Polyform.coeff; _ } ] -> check_float "coeff = a" 2. coeff
      | _ -> Alcotest.fail "expected one monomial")

let test_polyform_merges_like_terms () =
  let r = Expr.read "u" (iv [ 0 ]) in
  let e = Expr.(r +: r +: (const (-2.) *: r)) in
  match Polyform.of_expr ~params:(fun _ -> nan) e with
  | None -> Alcotest.fail "not recognised"
  | Some p -> check_int "cancelled" 0 (List.length p.Polyform.monos)

let test_polyform_rejects_read_division () =
  let e = Expr.(const 1. /: read "u" (iv [ 0 ])) in
  check_bool "read in denominator" true
    (Polyform.of_expr ~params:(fun _ -> nan) e = None);
  (* constant division is fine *)
  let e2 = Expr.(read "u" (iv [ 0 ]) /: const 4.) in
  check_bool "const division ok" true
    (Polyform.of_expr ~params:(fun _ -> nan) e2 <> None)

let test_polyform_rejects_high_degree () =
  let r = Expr.read "u" (iv [ 0 ]) in
  let rec pow n = if n = 1 then r else Expr.(r *: pow (n - 1)) in
  check_bool "degree 5 rejected" true
    (Polyform.of_expr ~params:(fun _ -> nan) (pow 5) = None);
  check_bool "degree 4 accepted" true
    (Polyform.of_expr ~params:(fun _ -> nan) (pow 4) <> None)

(* random polynomial-friendly expressions *)
let expr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        (float_range (-3.) 3. >|= fun c -> Expr.Const c);
        ( pair (oneofl [ "u"; "v"; "w" ]) (pair (int_range (-2) 2) (int_range (-2) 2))
        >|= fun (g, (a, b)) -> Expr.read g (iv [ a; b ]) );
      ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            let* a = go (depth - 1) and* b = go (depth - 1) in
            oneofl Expr.[ a +: b; a -: b ] );
          ( 2,
            let* a = go (depth - 1) and* b = go (depth - 1) in
            return Expr.(a *: b) );
          (1, go (depth - 1) >|= Expr.neg);
        ]
  in
  go 3

let polyform_props =
  [
    QCheck.Test.make ~name:"polyform preserves semantics" ~count:500
      (QCheck.make ~print:Expr.to_string expr_gen)
      (fun e ->
        match Polyform.of_expr ~params:(fun _ -> nan) e with
        | None -> QCheck.assume_fail ()
        | Some p ->
            let reference =
              Expr.eval e ~read:(fun g m -> read_value (g, m))
                ~params:(fun _ -> nan)
            in
            let got = Polyform.eval p ~read_value in
            let scale = Float.max 1. (Float.abs reference) in
            Float.abs (got -. reference) /. scale < 1e-9);
  ]

let test_closure_fallback_division () =
  (* a stencil whose expression reads in a denominator runs on every
     backend like any other body *)
  let shape = iv [ 8; 8 ] in
  let s =
    Stencil.make ~label:"recip" ~output:"out"
      ~expr:Expr.(const 1. /: (read "u" (iv [ 0; 0 ]) +: const 3.))
      ~domain:(Domain.interior 2 ~ghost:0)
      ()
  in
  assert_all_backends_agree ~shape (Group.make ~label:"recip" [ s ])

(* ------------------------------------------------------ exec edge cases *)

let test_constant_stencil () =
  (* an expression with no reads at all: polyform is a bare constant *)
  let shape = iv [ 5; 5 ] in
  let s =
    Stencil.make ~label:"fill" ~output:"out"
      ~expr:Expr.(const 2. *: param "k")
      ~domain:(Domain.interior 2 ~ghost:1)
      ()
  in
  let grids = Grids.of_list [ ("out", Mesh.create shape) ] in
  List.iter
    (fun backend ->
      Mesh.fill (Grids.find grids "out") 0.;
      let kernel =
        Jit.compile backend ~shape (Group.make ~label:"fill" [ s ])
      in
      kernel.Kernel.run ~params:[ ("k", 3.) ] grids;
      check_float
        (Jit.backend_name backend ^ " interior")
        6.
        (Mesh.get (Grids.find grids "out") (iv [ 2; 2 ]));
      check_float (Jit.backend_name backend ^ " ghost") 0.
        (Mesh.get (Grids.find grids "out") (iv [ 0; 0 ])))
    Jit.all_backends

let test_one_dimensional_backends () =
  let shape = iv [ 40 ] in
  let s =
    Stencil.make ~label:"d1" ~output:"out"
      ~expr:
        Expr.(
          (read "u" (iv [ -1 ]) +: read "u" (iv [ 1 ]))
          *: const 0.5)
      ~domain:(Domain.interior 1 ~ghost:1)
      ()
  in
  let group = Group.make ~label:"d1" [ s ] in
  let run backend config =
    let grids =
      Grids.of_list [ ("u", Mesh.random ~seed:4 shape); ("out", Mesh.create shape) ]
    in
    (Jit.compile ~config backend ~shape group).Kernel.run grids;
    Grids.find grids "out"
  in
  let reference = run Jit.Interp Config.default in
  List.iter
    (fun (b, c) ->
      check_bool (Jit.backend_name b ^ " 1-d") true
        (Mesh.close ~ulps:0 ~atol:0. reference (run b c)))
    [
      (Jit.Compiled, Config.default);
      (Jit.Openmp, Config.with_workers 2 Config.default);
      (Jit.Opencl, { Config.default with tall_skinny = (2, 5) });
    ]

let test_kernel_reuse_across_grids () =
  (* one kernel, two different mesh sets: each run binds its own and
     results must be correct on both *)
  let shape = iv [ 8; 8 ] in
  let s =
    Stencil.make ~label:"twice" ~output:"out"
      ~expr:Expr.(const 2. *: read "u" (iv [ 0; 0 ]))
      ~domain:(Domain.interior 2 ~ghost:0)
      ()
  in
  let kernel = Jit.compile Jit.Compiled ~shape (Group.make ~label:"t" [ s ]) in
  let mk seed =
    Grids.of_list [ ("u", Mesh.random ~seed shape); ("out", Mesh.create shape) ]
  in
  let ga = mk 1 and gb = mk 2 in
  kernel.Kernel.run ga;
  kernel.Kernel.run gb;
  kernel.Kernel.run ga;
  let check grids =
    check_float "doubled"
      (2. *. Mesh.get (Grids.find grids "u") (iv [ 3; 4 ]))
      (Mesh.get (Grids.find grids "out") (iv [ 3; 4 ]))
  in
  check ga;
  check gb;
  (* rebinding a single mesh: [run] sees the new one, while an instance
     bound before keeps the mesh it was bound to *)
  let old_u = Grids.find ga "u" in
  let instance = kernel.Kernel.bind ga in
  let fresh = Mesh.random ~seed:9 shape in
  Grids.add ga "u" fresh;
  kernel.Kernel.run ga;
  check_float "rebound"
    (2. *. Mesh.get fresh (iv [ 5; 5 ]))
    (Mesh.get (Grids.find ga "out") (iv [ 5; 5 ]));
  instance ();
  check_float "instance keeps its mesh"
    (2. *. Mesh.get old_u (iv [ 5; 5 ]))
    (Mesh.get (Grids.find ga "out") (iv [ 5; 5 ]));
  (* an undersized mesh is refused at bind, before any instance exists *)
  let small =
    Grids.of_list
      [ ("u", Mesh.create (iv [ 4; 4 ])); ("out", Mesh.create shape) ]
  in
  check_bool "undersized refused at bind" true
    (try
       ignore (kernel.Kernel.bind small : Kernel.instance);
       false
     with Invalid_argument _ -> true)

let test_param_change_invalidates () =
  let shape = iv [ 6 ] in
  let s =
    Stencil.make ~label:"scaled" ~output:"out"
      ~expr:Expr.(param "k" *: read "u" (iv [ 0 ]))
      ~domain:(Domain.interior 1 ~ghost:0)
      ()
  in
  let kernel = Jit.compile Jit.Compiled ~shape (Group.make ~label:"p" [ s ]) in
  let grids =
    Grids.of_list [ ("u", Mesh.random ~seed:3 shape); ("out", Mesh.create shape) ]
  in
  kernel.Kernel.run ~params:[ ("k", 2.) ] grids;
  let v2 = Mesh.get (Grids.find grids "out") (iv [ 2 ]) in
  kernel.Kernel.run ~params:[ ("k", 10.) ] grids;
  let v10 = Mesh.get (Grids.find grids "out") (iv [ 2 ]) in
  check_float "params rebound" (5. *. v2) v10;
  (* each instance keeps the parameters it was bound with *)
  let by2 = kernel.Kernel.bind ~params:[ ("k", 2.) ] grids in
  let by10 = kernel.Kernel.bind ~params:[ ("k", 10.) ] grids in
  by10 ();
  by2 ();
  check_float "instance k=2" v2 (Mesh.get (Grids.find grids "out") (iv [ 2 ]));
  by10 ();
  check_float "instance k=10" v10
    (Mesh.get (Grids.find grids "out") (iv [ 2 ]));
  (* an unbound parameter is refused at bind *)
  check_bool "unbound parameter refused at bind" true
    (try
       ignore (kernel.Kernel.bind grids : Kernel.instance);
       false
     with Invalid_argument _ -> true)

(* A cached kernel holds no mesh of its callers: once the only instance
   is dropped, its meshes are garbage while the kernel stays cached. *)
let test_cache_pins_no_grid () =
  let shape = iv [ 8; 8 ] in
  let group =
    Group.make ~label:"pin"
      [
        Stencil.make ~label:"copy" ~output:"out"
          ~expr:Expr.(read "u" (iv [ 0; 0 ]))
          ~domain:(Domain.interior 2 ~ghost:0)
          ();
      ]
  in
  let kernel = Jit.compile Jit.Compiled ~shape group in
  let freed = ref false in
  let[@inline never] run_once () =
    let u = Mesh.random ~seed:4 shape in
    Gc.finalise (fun _ -> freed := true) u;
    let instance =
      kernel.Kernel.bind
        (Grids.of_list [ ("u", u); ("out", Mesh.create shape) ])
    in
    instance ()
  in
  run_once ();
  Gc.full_major ();
  check_bool "mesh collected" true !freed;
  let hits, _ = Jit.cache_stats () in
  check_bool "kernel still cached" true
    (Jit.compile Jit.Compiled ~shape group == kernel);
  check_int "a cache hit" (hits + 1) (fst (Jit.cache_stats ()))

let test_periodic_faces_all_backends () =
  (* grid-sized offsets (paper: boundary stencils "with (sometimes) large
     offsets") must survive every backend's index strength reduction *)
  let shape = iv [ 10; 10 ] in
  let group =
    Group.make ~label:"periodic"
      (Dsl.periodic_faces ~dims:2 ~interior:8 ~grid:"g")
  in
  let run backend =
    let grids = Grids.of_list [ ("g", Mesh.random ~seed:6 shape) ] in
    (Jit.compile backend ~shape group).Kernel.run grids;
    Grids.find grids "g"
  in
  let reference = run Jit.Interp in
  check_float "wraps" (Mesh.get reference (iv [ 8; 3 ]))
    (Mesh.get reference (iv [ 0; 3 ]));
  List.iter
    (fun b ->
      check_bool (Jit.backend_name b ^ " periodic") true
        (Mesh.close ~ulps:0 ~atol:0. reference (run b)))
    [ Jit.Compiled; Jit.Openmp; Jit.Opencl ]

let test_pool_more_workers_than_tasks () =
  let hits = Array.make 3 0 in
  Pool.run_tasks (Pool.create ~workers:8)
    (Array.init 3 (fun i () -> hits.(i) <- hits.(i) + 1));
  check_bool "all ran once" true (Array.for_all (( = ) 1) hits);
  (* empty task array is a no-op *)
  Pool.run_tasks (Pool.create ~workers:4) [||]

(* ---------------------------------------------------- schedule checker *)

(* every conflict of every wave of a plan *)
let plan_conflicts (plan : Plan.t) =
  List.concat_map
    (fun (w : Plan.wave) -> Schedule_check.wave_conflicts w.Plan.tasks)
    plan.Plan.waves

let check_plan_clean what plan =
  match plan_conflicts plan with
  | [] -> ()
  | c :: _ ->
      Alcotest.failf "%s rejected: %s" what (Schedule_check.conflict_to_string c)

let test_checker_accepts_gsrb_plan () =
  let shape = iv [ 12; 12 ] in
  List.iter
    (fun config ->
      check_plan_clean "gsrb plan"
        (Jit.lower ~config Jit.Openmp ~shape (gsrb_group ())))
    [
      Config.default;
      { Config.default with tile = Some [ 3; 3 ] };
      { Config.default with multicolor = true };
      { Config.default with schedule = Config.Dag_levels };
    ];
  check_plan_clean "opencl plan" (Jit.lower Jit.Opencl ~shape (gsrb_group ()))

let test_checker_rejects_bogus_wave () =
  (* two tiles of an in-place full-domain Gauss-Seidel placed in one wave
     must be flagged *)
  let s =
    Stencil.make ~label:"gs" ~output:"u"
      ~expr:Expr.(read "u" (iv [ -1 ]) +: read "u" (iv [ 1 ]))
      ~domain:(Domain.interior 1 ~ghost:1)
      ()
  in
  let rect =
    Domain.resolve_rect ~shape:(iv [ 20 ])
      (List.hd s.Stencil.domain)
  in
  let tiles = Tiling.split_outer ~chunks:2 rect in
  let wave = Array.of_list (List.map (fun t -> [ (s, t) ]) tiles) in
  match Schedule_check.wave_conflicts wave with
  | _ :: _ -> ()
  | [] -> Alcotest.fail "conflicting wave accepted"

let gs_in_place_1d () =
  Stencil.make ~label:"gs" ~output:"u"
    ~expr:Expr.(read "u" (iv [ -1 ]) +: read "u" (iv [ 1 ]))
    ~domain:(Domain.interior 1 ~ghost:1)
    ()

let test_checker_collects_all_conflicts () =
  (* four adjacent tiles of an in-place Gauss-Seidel in one wave: every
     adjacent pair conflicts in both directions, and the checker must
     report all of them, not stop at the first *)
  let s = gs_in_place_1d () in
  let rect = Domain.resolve_rect ~shape:(iv [ 41 ]) (List.hd s.Stencil.domain) in
  let tiles = Tiling.split_outer ~chunks:4 rect in
  let wave = Array.of_list (List.map (fun t -> [ (s, t) ]) tiles) in
  let cs = Schedule_check.wave_conflicts wave in
  check_int "all six conflicts" 6 (List.length cs);
  List.iter
    (fun c ->
      check_bool "ordered pair" true
        Schedule_check.(c.first < c.second);
      Alcotest.(check string) "on grid u" "u" c.Schedule_check.grid)
    cs;
  let kinds =
    List.sort_uniq String.compare
      (List.map (fun c -> c.Schedule_check.kind) cs)
  in
  Alcotest.(check (list string)) "both directions" [ "read/write"; "write/read" ]
    kinds;
  (* certification surfaces every one of them, not just the first: a
     forced-parallel plan with exactly these four tiles reports all six
     as SF021 rows *)
  let group = Group.make ~label:"gs4" [ s ] in
  let config =
    { Config.default with Config.force_parallel = [ "gs" ]; chunks = 4 }
  in
  let plan = Jit.lower ~config Jit.Openmp ~shape:(iv [ 41 ]) group in
  check_int "plan runs the four tiles" 4
    (Array.length (List.hd plan.Plan.waves).Plan.tasks);
  check_int "every conflict certified" 6
    (List.length
       (List.filter
          (fun (d : Sf_analysis.Diagnostics.t) ->
            d.Sf_analysis.Diagnostics.code = "SF021")
          (Schedule_check.certify config plan)))

let test_checker_buckets_by_grid () =
  (* tasks whose footprints overlap cell-wise but live on different grids
     never reach the lattice intersection *)
  let mk label out src =
    Stencil.make ~label ~output:out
      ~expr:Expr.(read src (iv [ -1 ]) +: read src (iv [ 1 ]))
      ~domain:(Domain.interior 1 ~ghost:1)
      ()
  in
  let t s =
    [ (s, Domain.resolve_rect ~shape:(iv [ 20 ]) (List.hd s.Stencil.domain)) ]
  in
  check_int "disjoint grids clean" 0
    (List.length
       (Schedule_check.wave_conflicts [| t (mk "a" "x" "p"); t (mk "b" "y" "q") |]))

let test_force_parallel_override () =
  (* force_parallel makes the backend tile a stencil the analysis proved
     sequential; the certifier is the net that catches the bad assertion *)
  let group = Group.make ~label:"racy" [ gs_in_place_1d () ] in
  let shape = iv [ 20 ] in
  let config =
    {
      Config.default with
      Config.force_parallel = [ "gs" ];
      workers = 2;
      (* small work groups so the 1-d domain actually splits on opencl *)
      tall_skinny = (2, 8);
    }
  in
  if plan_conflicts (Jit.lower ~config Jit.Openmp ~shape group) = [] then
    Alcotest.fail "forced racy plan certified";
  let code (d : Sf_analysis.Diagnostics.t) = d.Sf_analysis.Diagnostics.code in
  List.iter
    (fun backend ->
      let diags =
        Schedule_check.certify config (Jit.lower ~config backend ~shape group)
      in
      check_bool "SF021 race reported" true
        (List.exists
           (fun d ->
             code d = "SF021"
             && d.Sf_analysis.Diagnostics.severity = Sf_analysis.Diagnostics.Error)
           diags);
      check_bool "SF022 override warned" true
        (List.exists (fun d -> code d = "SF022") diags))
    [ Jit.Openmp; Jit.Opencl ];
  (* without the override the same group plans sequentially and certifies *)
  Alcotest.(check (list string)) "default config clean" []
    (List.map code
       (Schedule_check.certify Config.default
          (Jit.lower Jit.Openmp ~shape group)));
  (* gsrb certifies clean under every config the plan tests cover *)
  Alcotest.(check (list string)) "gsrb certifies" []
    (List.map code
       (let config = { Config.default with multicolor = true } in
        Schedule_check.certify config
          (Jit.lower ~config Jit.Openmp ~shape:(iv [ 12; 12 ]) (gsrb_group ()))))

let test_jit_certification_gate () =
  Jit.clear_cache ();
  let shape = iv [ 20 ] in
  let racy = Group.make ~label:"racy_gate" [ gs_in_place_1d () ] in
  let config =
    {
      Config.default with
      Config.certify = true;
      force_parallel = [ "gs" ];
      workers = 2;
    }
  in
  (match Jit.compile ~config Jit.Openmp ~shape racy with
  | exception Jit.Certification_failed { backend; diagnostics; _ } ->
      Alcotest.(check string) "backend named" "openmp" backend;
      check_bool "carries the race" true
        (List.exists
           (fun (d : Sf_analysis.Diagnostics.t) ->
             d.Sf_analysis.Diagnostics.code = "SF021")
           diagnostics)
  | _ -> Alcotest.fail "racy plan compiled under certify");
  (* a clean group under certify compiles and still computes correctly *)
  let shape2 = iv [ 12; 12 ] in
  let group = gsrb_group () in
  let certified = { Config.default with Config.certify = true } in
  let ref_grids = fresh_grids_2d shape2 in
  let grids = fresh_grids_2d shape2 in
  (Jit.compile Jit.Interp ~shape:shape2 group).Kernel.run ref_grids;
  (Jit.compile ~config:certified Jit.Openmp ~shape:shape2 group).Kernel.run
    grids;
  check_float "certified kernel matches interp" 0.
    (Mesh.max_abs_diff (Grids.find ref_grids "mesh") (Grids.find grids "mesh"))

let random_plan_prop =
  (* random small groups: every plan the OpenMP backend would execute is
     conflict-free according to the exact lattice checker *)
  let gen =
    QCheck.Gen.(
      let* n_stencils = int_range 2 5 in
      let* seeds = list_size (return n_stencils) (int_range 0 1000) in
      return seeds)
  in
  let mk_stencil seed =
    let colored = seed mod 3 = 0 in
    let in_place = seed mod 2 = 0 in
    let out = if in_place then "mesh" else "out" in
    let domain =
      if colored then
        Domain.colored 2 ~ghost:1 ~color:(seed mod 2) ~ncolors:2
      else Domain.interior 2 ~ghost:1
    in
    let expr =
      if in_place && not colored then
        (* full-domain in-place: only the centre tap keeps it parallel *)
        Expr.(read "mesh" (iv [ 0; 0 ]) *: const 0.5)
      else
        Expr.(
          Component.to_expr ~grid:"mesh" (five_point_weights ())
          +: read "v" (iv [ 0; 0 ]))
    in
    Stencil.make ~label:(Printf.sprintf "s%d" seed) ~output:out ~expr ~domain
      ()
  in
  QCheck.Test.make ~name:"openmp plans are conflict-free" ~count:60
    (QCheck.make
       ~print:(fun seeds -> String.concat "," (List.map string_of_int seeds))
       gen)
    (fun seeds ->
      let group =
        Group.make ~label:"rand" (List.map mk_stencil seeds)
      in
      let shape = iv [ 11; 13 ] in
      List.for_all
        (fun config ->
          plan_conflicts (Jit.lower ~config Jit.Openmp ~shape group) = [])
        [
          Config.default;
          { Config.default with tile = Some [ 2; 5 ] };
          { Config.default with schedule = Config.Dag_levels };
        ])

(* ---------------------------------------------------------- jit passes *)

let test_fuse_pass_same_output () =
  let shape = iv [ 10 ] in
  let dom = Domain.interior 1 ~ghost:1 in
  let s1 =
    Stencil.make ~label:"a" ~output:"out"
      ~expr:Expr.(read "u" (iv [ -1 ]) +: read "u" (iv [ 1 ]))
      ~domain:dom ()
  in
  let s2 =
    Stencil.make ~label:"b" ~output:"out"
      ~expr:Expr.(read "out" (iv [ 0 ]) *: const 0.5)
      ~domain:dom ()
  in
  let g = Group.make ~label:"g" [ s1; s2 ] in
  let fused = Passes.fuse_pass ~shape ~live:None g in
  check_int "one stencil left" 1 (Group.length fused);
  (* semantics preserved end-to-end through the jit *)
  let run config =
    let grids =
      Grids.of_list
        [ ("u", Mesh.random ~seed:3 shape); ("out", Mesh.create shape) ]
    in
    (Jit.compile ~config Jit.Compiled ~shape g).Kernel.run grids;
    Grids.find grids "out"
  in
  let plain = run Config.default in
  let config = { Config.default with inline_producers = true } in
  let fused_result = run config in
  check_bool "fusion preserves results" true
    (Mesh.close ~ulps:0 plain fused_result);
  (* the plan Jit.lower returns is the optimised one compile runs *)
  check_int "lowered plan is inlined" 1
    (Group.length (Jit.lower ~config Jit.Compiled ~shape g).Plan.group)

let test_fuse_pass_respects_liveness () =
  let shape = iv [ 10 ] in
  let dom = Domain.interior 1 ~ghost:1 in
  let producer =
    Stencil.make ~label:"p" ~output:"tmp"
      ~expr:Expr.(read "u" (iv [ -1 ]) +: read "u" (iv [ 1 ]))
      ~domain:dom ()
  in
  let consumer =
    Stencil.make ~label:"c" ~output:"out"
      ~expr:Expr.(read "tmp" (iv [ 0 ]) *: const 2.)
      ~domain:dom ()
  in
  let g = Group.make ~label:"g" [ producer; consumer ] in
  (* without liveness info, tmp might be observed: no fusion *)
  check_int "conservative" 2
    (Group.length (Passes.fuse_pass ~shape ~live:None g));
  (* tmp declared dead: fusion happens *)
  check_int "fused" 1
    (Group.length (Passes.fuse_pass ~shape ~live:(Some [ "out" ]) g))

let test_dce_in_jit () =
  let shape = iv [ 10 ] in
  let dom = Domain.interior 1 ~ghost:1 in
  let dead =
    Stencil.make ~label:"dead" ~output:"scratch"
      ~expr:(Expr.read "u" (iv [ 0 ]))
      ~domain:dom ()
  in
  let live =
    Stencil.make ~label:"live" ~output:"out"
      ~expr:(Expr.read "u" (iv [ 0 ]))
      ~domain:dom ()
  in
  let g = Group.make ~label:"g" [ dead; live ] in
  let config = { Config.default with dce = Config.Dce [ "out" ] } in
  let kernel = Jit.compile ~config Jit.Compiled ~shape g in
  (* scratch is eliminated: running without binding it must now succeed *)
  let grids =
    Grids.of_list
      [ ("u", Mesh.random ~seed:1 shape); ("out", Mesh.create shape) ]
  in
  kernel.Kernel.run grids;
  check_bool "ran without the dead grid bound" true true

(* ----------------------------------------------------------------- JIT *)

let test_jit_cache () =
  Jit.clear_cache ();
  let shape = iv [ 8; 8 ] in
  let group = gsrb_group () in
  let k1 = Jit.compile Jit.Compiled ~shape group in
  let k2 = Jit.compile Jit.Compiled ~shape group in
  check_bool "same kernel object" true (k1 == k2);
  let hits, misses = Jit.cache_stats () in
  check_int "hits" 1 hits;
  check_int "misses" 1 misses;
  (* different shape misses *)
  ignore (Jit.compile Jit.Compiled ~shape:(iv [ 10; 10 ]) group);
  let _, misses = Jit.cache_stats () in
  check_int "shape misses" 2 misses;
  (* structurally equal group rebuilt from scratch hits *)
  ignore (Jit.compile Jit.Compiled ~shape (gsrb_group ()));
  let hits, _ = Jit.cache_stats () in
  check_int "structural hit" 2 hits

(* A hit is decided by exact group equality, not by the bucket hash:
   [Hashtbl.hash] maps the factors 23.182 and 38.905 to one value, so
   both programs land in one bucket, yet each must get its own kernel. *)
let test_jit_exact_identity () =
  check_int "the factors share a hash" (Hashtbl.hash 23.182)
    (Hashtbl.hash 38.905);
  let shape = iv [ 6; 6 ] in
  let scale factor =
    Group.make ~label:"scale"
      [ Dsl.scale ~dims:2 ~out:"out" ~input:"u" ~factor () ]
  in
  List.iter
    (fun backend ->
      List.iter
        (fun factor ->
          let u = Mesh.create shape and out = Mesh.create shape in
          Mesh.fill u 1.;
          (Jit.compile backend ~shape (scale factor)).Kernel.run
            (Grids.of_list [ ("u", u); ("out", out) ]);
          check_float
            (Printf.sprintf "%s scales by %g" (Jit.backend_name backend)
               factor)
            factor (Mesh.get out [| 2; 3 |]))
        [ 23.182; 38.905 ])
    [ Jit.Interp; Jit.Compiled; Jit.Openmp ]

let test_jit_cache_reps () =
  (* [reps] is part of the key: [~reps:1] is the plain entry, [~reps:2] a
     second one whose single call equals two plain calls bit for bit *)
  Jit.clear_cache ();
  let shape = iv [ 11; 9 ] in
  let group = gsrb_group () in
  check_bool "gsrb is time-tileable" true (Timetile.legal ~shape group);
  let plain = Jit.compile Jit.Compiled ~shape group in
  check_bool "reps:1 is the plain entry" true
    (Jit.compile ~reps:1 Jit.Compiled ~shape group == plain);
  Alcotest.(check (pair int int)) "plain then reps:1" (1, 1) (Jit.cache_stats ());
  let tiled = Jit.compile ~reps:2 Jit.Compiled ~shape group in
  Alcotest.(check (pair int int)) "reps:2 misses" (1, 2) (Jit.cache_stats ());
  check_bool "reps:2 hits" true
    (Jit.compile ~reps:2 Jit.Compiled ~shape group == tiled);
  Alcotest.(check (pair int int)) "reps:2 again" (2, 2) (Jit.cache_stats ());
  let hex ?(config = Config.default) ?reps shape =
    Jit.cache_key_hex ~config ?reps Jit.Compiled ~shape group
  in
  check_bool "hex keyed by reps" true (hex ~reps:2 shape <> hex shape);
  Alcotest.(check string) "hex of reps:1 is the plain one" (hex shape)
    (hex ~reps:1 shape);
  (* every key component reaches the token, not only the first words *)
  check_bool "hex keyed by the last axis" true
    (hex (iv [ 11; 10 ]) <> hex shape);
  check_bool "hex keyed by late config fields" true
    (hex ~config:{ Config.default with Config.time_block = 4 } shape
    <> hex shape);
  let mesh () = Grids.of_list [ ("mesh", Mesh.random ~seed:31 shape) ] in
  let twice = mesh () and once = mesh () in
  plain.Kernel.run twice;
  plain.Kernel.run twice;
  tiled.Kernel.run once;
  check_bool "reps:2 = two plain calls, bitwise" true
    (Mesh.close (Grids.find twice "mesh") (Grids.find once "mesh"))

let test_jit_thread_safety () =
  (* kernels may be compiled from worker domains: racing compiles of the
     same key must agree on one cached kernel and not corrupt counters *)
  Jit.clear_cache ();
  let shape = iv [ 8; 8 ] in
  let group = gsrb_group () in
  let kernels =
    Array.init 4 (fun _ ->
        Stdlib.Domain.spawn (fun () -> Jit.compile Jit.Compiled ~shape group))
    |> Array.map Stdlib.Domain.join
  in
  Array.iter
    (fun k -> check_bool "one kernel retained" true (k == kernels.(0)))
    kernels;
  let hits, misses = Jit.cache_stats () in
  check_int "every compile counted" 4 (hits + misses);
  check_bool "at least one miss" true (misses >= 1);
  (* and the retained kernel is the one later lookups return *)
  check_bool "cache settled" true
    (Jit.compile Jit.Compiled ~shape group == kernels.(0))

let test_custom_backend_registry () =
  let calls = ref 0 in
  Jit.register_backend ~name:"unit-test-backend" (fun config ~shape group ->
      incr calls;
      Plan.execute ~tier:Plan.Compiled config
        (Serial_backend.lower ~backend:"compiled" ~shape group));
  check_bool "resolvable" true
    (Jit.backend_of_string "unit-test-backend" = Some (Jit.Custom "unit-test-backend"));
  check_bool "listed" true
    (List.mem "unit-test-backend" (Jit.registered_backends ()));
  let shape = iv [ 8; 8 ] in
  let group = gsrb_group () in
  let kernel = Jit.compile (Jit.Custom "unit-test-backend") ~shape group in
  check_int "compiler invoked once" 1 !calls;
  (* cached: second compile does not re-invoke *)
  ignore (Jit.compile (Jit.Custom "unit-test-backend") ~shape group);
  check_int "cached" 1 !calls;
  (* and it runs correctly *)
  let grids = fresh_grids_2d shape in
  kernel.Kernel.run grids;
  let reference = fresh_grids_2d shape in
  (Jit.compile Jit.Compiled ~shape group).Kernel.run reference;
  check_bool "custom = compiled" true
    (Mesh.close ~ulps:0 (Grids.find grids "mesh") (Grids.find reference "mesh"));
  (* built-in names are protected *)
  (try
     Jit.register_backend ~name:"openmp" (fun c ~shape g ->
         Plan.execute ~tier:Plan.Compiled c
           (Serial_backend.lower ~backend:"compiled" ~shape g));
     Alcotest.fail "built-in collision accepted"
   with Invalid_argument _ -> ());
  (* unknown custom name fails at compile *)
  try
    ignore (Jit.compile (Jit.Custom "never-registered") ~shape group);
    Alcotest.fail "unknown backend accepted"
  with Invalid_argument _ -> ()

let test_backend_names () =
  List.iter
    (fun b ->
      check_bool "roundtrip" true
        (Jit.backend_of_string (Jit.backend_name b) = Some b))
    Jit.all_backends;
  check_bool "unknown" true (Jit.backend_of_string "cuda" = None)

let test_validation_missing_grid () =
  let shape = iv [ 8; 8 ] in
  let s =
    Stencil.make ~label:"lap" ~output:"out"
      ~expr:(Component.to_expr ~grid:"u" (five_point_weights ()))
      ~domain:(Domain.interior 2 ~ghost:1)
      ()
  in
  let kernel = Jit.compile Jit.Compiled ~shape (Group.make ~label:"v" [ s ]) in
  let grids = Grids.of_list [ ("u", Mesh.random shape) ] in
  try
    kernel.Kernel.run grids;
    Alcotest.fail "missing grid accepted"
  with Invalid_argument _ -> ()

let test_validation_out_of_bounds () =
  let shape = iv [ 8; 8 ] in
  let s =
    Stencil.make ~label:"lap" ~output:"out"
      ~expr:(Component.to_expr ~grid:"u" (five_point_weights ()))
      ~domain:(Domain.interior 2 ~ghost:0)
      ()
  in
  let kernel = Jit.compile Jit.Compiled ~shape (Group.make ~label:"b" [ s ]) in
  let grids =
    Grids.of_list [ ("u", Mesh.random shape); ("out", Mesh.create shape) ]
  in
  try
    kernel.Kernel.run grids;
    Alcotest.fail "out-of-bounds accepted"
  with Invalid_argument _ -> ()

let test_missing_param () =
  let shape = iv [ 8; 8 ] in
  let s =
    Stencil.make ~label:"p" ~output:"out"
      ~expr:Expr.(read "u" (iv [ 0; 0 ]) *: param "lambda")
      ~domain:(Domain.interior 2 ~ghost:0)
      ()
  in
  let kernel = Jit.compile Jit.Compiled ~shape (Group.make ~label:"p" [ s ]) in
  let grids =
    Grids.of_list [ ("u", Mesh.random shape); ("out", Mesh.create shape) ]
  in
  (try
     kernel.Kernel.run grids;
     Alcotest.fail "missing param accepted"
   with Invalid_argument _ -> ());
  kernel.Kernel.run ~params:[ ("lambda", 2.) ] grids;
  check_float "param applied"
    (2. *. Mesh.get (Grids.find grids "u") (iv [ 3; 3 ]))
    (Mesh.get (Grids.find grids "out") (iv [ 3; 3 ]))

(* --------------------------------------------- degenerate-domain matrix *)

let all_backends = [ Jit.Interp; Jit.Compiled; Jit.Openmp; Jit.Opencl ]

let run_edge backend ~shape ~domain ~expr =
  let s = Stencil.make ~label:"edge" ~output:"out" ~expr ~domain () in
  let group = Group.make ~label:"edge" [ s ] in
  let grids =
    Grids.of_list
      [ ("u", Mesh.random ~seed:11 shape); ("out", Mesh.create shape) ]
  in
  (Jit.compile backend ~shape group).Kernel.run grids;
  Grids.find grids "out"

let test_empty_domain_all_backends () =
  (* lo = hi resolves to zero lattice points: a legal no-op sweep *)
  let shape = iv [ 8; 8 ] in
  let domain = Domain.of_rect (Domain.rect ~lo:[ 3; 3 ] ~hi:[ 3; 3 ] ()) in
  let expr = Expr.(read "u" (iv [ 0; 0 ]) +: const 1.) in
  List.iter
    (fun b ->
      let out = run_edge b ~shape ~domain ~expr in
      check_bool
        (Jit.backend_name b ^ " writes nothing")
        true
        (Mesh.close ~ulps:0 out (Mesh.create shape)))
    all_backends

let test_single_cell_domain_all_backends () =
  let shape = iv [ 8; 8 ] in
  let domain = Domain.of_rect (Domain.rect ~lo:[ 3; 4 ] ~hi:[ 4; 5 ] ()) in
  let expr = Expr.(read "u" (iv [ 0; 0 ]) +: const 1.) in
  let u = Mesh.random ~seed:11 shape in
  List.iter
    (fun b ->
      let out = run_edge b ~shape ~domain ~expr in
      check_float
        (Jit.backend_name b ^ " writes the cell")
        (Mesh.get u (iv [ 3; 4 ]) +. 1.)
        (Mesh.get out (iv [ 3; 4 ]));
      (* and only that cell *)
      Mesh.set out (iv [ 3; 4 ]) 0.;
      check_bool
        (Jit.backend_name b ^ " touches nothing else")
        true
        (Mesh.close ~ulps:0 out (Mesh.create shape)))
    all_backends

let test_stride_exceeds_extent_all_backends () =
  (* stride 50 over an extent of ~8: exactly one lattice point per axis *)
  let shape = iv [ 8; 10 ] in
  let domain =
    Domain.of_rect
      (Domain.rect ~stride:[ 50; 50 ] ~lo:[ 1; 1 ] ~hi:[ -1; -1 ] ())
  in
  let expr = Expr.(read "u" (iv [ 0; 1 ]) *: const 2.) in
  let reference = run_edge Jit.Interp ~shape ~domain ~expr in
  check_bool "interp wrote the single point" true
    (Mesh.get reference (iv [ 1; 1 ]) <> 0.);
  List.iter
    (fun b ->
      check_bool
        (Jit.backend_name b ^ " agrees")
        true
        (Mesh.close ~ulps:0 reference (run_edge b ~shape ~domain ~expr)))
    all_backends

let test_overlapping_union_all_backends () =
  (* overlapping union rects are fine out-of-place: the overlap is written
     twice with the same value, so every schedule lands on the same mesh *)
  let shape = iv [ 10; 10 ] in
  let domain =
    Domain.union
      (Domain.of_rect (Domain.rect ~lo:[ 1; 1 ] ~hi:[ 6; 6 ] ()))
      (Domain.of_rect (Domain.rect ~lo:[ 4; 4 ] ~hi:[ 9; 9 ] ()))
  in
  let expr =
    Expr.(
      (read "u" (iv [ 1; 0 ]) *: const 0.5) +: (read "u" (iv [ -1; 0 ]) *: const 0.5))
  in
  let reference = run_edge Jit.Interp ~shape ~domain ~expr in
  check_bool "overlap region written" true
    (Mesh.get reference (iv [ 5; 5 ]) <> 0.);
  List.iter
    (fun b ->
      check_bool
        (Jit.backend_name b ^ " agrees")
        true
        (Mesh.close ~ulps:0 ~atol:0. reference
           (run_edge b ~shape ~domain ~expr)))
    all_backends

(* ------------------------------------------------------ pool regression *)

let test_pool_worker_count_bitwise () =
  (* a plan the certifier passes as race-free must be bitwise
     deterministic across worker counts (SF_WORKERS=1 vs N) *)
  let shape = iv [ 12; 14 ] in
  let group = gsrb_group () in
  let diags =
    let config = Config.with_workers 4 Config.default in
    Schedule_check.certify config (Jit.lower ~config Jit.Openmp ~shape group)
  in
  check_bool "gsrb certifies race-free" false
    (Sf_analysis.Diagnostics.has_errors diags);
  let run workers =
    let grids = fresh_grids_2d shape in
    (Jit.compile
       ~config:(Config.with_workers workers Config.default)
       Jit.Openmp ~shape group)
      .Kernel.run grids;
    Grids.find grids "mesh"
  in
  let serial = run 1 in
  check_bool "1 vs 4 workers bitwise identical" true
    (Mesh.close ~ulps:0 serial (run 4));
  check_bool "1 vs 8 workers bitwise identical" true
    (Mesh.close ~ulps:0 serial (run 8))

let () =
  Alcotest.run "sf_backends"
    [
      ( "pool",
        [
          Alcotest.test_case "runs all" `Quick test_pool_runs_all;
          Alcotest.test_case "sequential order" `Quick test_pool_sequential;
          Alcotest.test_case "exception" `Quick test_pool_exception;
          Alcotest.test_case "parallel_for" `Quick test_parallel_for;
          Alcotest.test_case "parallel_range chunks" `Quick
            test_parallel_range_chunks;
          Alcotest.test_case "exception leaves pool reusable" `Quick
            test_pool_exception_leaves_pool_reusable;
          Alcotest.test_case "nested submit runs inline" `Quick
            test_pool_nested_runs_inline;
          Alcotest.test_case "abort skips are counted" `Quick
            test_pool_abort_skips_counted;
          Alcotest.test_case "re-entrant exception re-raised" `Quick
            test_pool_reentrant_exception;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "serial cutoff" `Quick test_pool_serial_cutoff;
          Alcotest.test_case "parallel_range serial cutoff" `Quick
            test_parallel_range_serial_cutoff;
          Alcotest.test_case "Metrics.reset zeroes all" `Quick
            test_metrics_reset_zeroes_counters;
        ] );
      ( "tiling",
        [
          Alcotest.test_case "split partitions" `Quick test_split_partitions;
          Alcotest.test_case "split strided" `Quick test_split_strided;
          Alcotest.test_case "split outer" `Quick test_split_outer;
          Alcotest.test_case "tall skinny" `Quick test_tall_skinny;
          Alcotest.test_case "oversized tile" `Quick test_split_oversized_tile;
          Alcotest.test_case "multicolor" `Quick test_multicolor_interleave;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "laplacian" `Quick test_equiv_laplacian;
          Alcotest.test_case "multi-input + params" `Quick
            test_equiv_multi_input;
          Alcotest.test_case "gsrb in-place" `Quick test_equiv_gsrb_in_place;
          Alcotest.test_case "strided restriction" `Quick
            test_equiv_strided_restriction;
          Alcotest.test_case "interpolation out_map" `Quick
            test_equiv_interpolation_out_map;
        ] );
      ( "equivalence-props",
        [ QCheck_alcotest.to_alcotest random_stencil_prop ] );
      ( "polyform",
        [
          Alcotest.test_case "laplacian" `Quick test_polyform_laplacian;
          Alcotest.test_case "param resolution" `Quick
            test_polyform_param_resolution;
          Alcotest.test_case "like terms merge" `Quick
            test_polyform_merges_like_terms;
          Alcotest.test_case "read division rejected" `Quick
            test_polyform_rejects_read_division;
          Alcotest.test_case "degree cap" `Quick
            test_polyform_rejects_high_degree;
          Alcotest.test_case "closure fallback" `Quick
            test_closure_fallback_division;
        ] );
      ("polyform-props", List.map QCheck_alcotest.to_alcotest polyform_props);
      ( "edge-cases",
        [
          Alcotest.test_case "constant stencil" `Quick test_constant_stencil;
          Alcotest.test_case "1-d backends" `Quick
            test_one_dimensional_backends;
          Alcotest.test_case "kernel reuse" `Quick
            test_kernel_reuse_across_grids;
          Alcotest.test_case "param invalidation" `Quick
            test_param_change_invalidates;
          Alcotest.test_case "cache pins no grid" `Quick
            test_cache_pins_no_grid;
          Alcotest.test_case "pool oversubscription" `Quick
            test_pool_more_workers_than_tasks;
          Alcotest.test_case "periodic faces" `Quick
            test_periodic_faces_all_backends;
          Alcotest.test_case "empty domain" `Quick
            test_empty_domain_all_backends;
          Alcotest.test_case "single cell" `Quick
            test_single_cell_domain_all_backends;
          Alcotest.test_case "stride > extent" `Quick
            test_stride_exceeds_extent_all_backends;
          Alcotest.test_case "overlapping union" `Quick
            test_overlapping_union_all_backends;
          Alcotest.test_case "worker-count bitwise" `Quick
            test_pool_worker_count_bitwise;
        ] );
      ( "schedule-check",
        [
          Alcotest.test_case "gsrb plans safe" `Quick
            test_checker_accepts_gsrb_plan;
          Alcotest.test_case "bogus wave rejected" `Quick
            test_checker_rejects_bogus_wave;
          Alcotest.test_case "all conflicts collected" `Quick
            test_checker_collects_all_conflicts;
          Alcotest.test_case "grid bucketing" `Quick
            test_checker_buckets_by_grid;
          Alcotest.test_case "force_parallel certify" `Quick
            test_force_parallel_override;
          QCheck_alcotest.to_alcotest random_plan_prop;
        ] );
      ( "passes",
        [
          Alcotest.test_case "fuse same output" `Quick
            test_fuse_pass_same_output;
          Alcotest.test_case "fuse liveness" `Quick
            test_fuse_pass_respects_liveness;
          Alcotest.test_case "dce in jit" `Quick test_dce_in_jit;
        ] );
      ( "jit",
        [
          Alcotest.test_case "cache" `Quick test_jit_cache;
          Alcotest.test_case "cache keyed by reps" `Quick test_jit_cache_reps;
          Alcotest.test_case "exact kernel identity" `Quick
            test_jit_exact_identity;
          Alcotest.test_case "thread safety" `Quick test_jit_thread_safety;
          Alcotest.test_case "backend names" `Quick test_backend_names;
          Alcotest.test_case "custom registry" `Quick
            test_custom_backend_registry;
          Alcotest.test_case "missing grid" `Quick test_validation_missing_grid;
          Alcotest.test_case "out of bounds" `Quick
            test_validation_out_of_bounds;
          Alcotest.test_case "missing param" `Quick test_missing_param;
          Alcotest.test_case "certification gate" `Quick
            test_jit_certification_gate;
        ] );
    ]
