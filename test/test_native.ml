(* The native tier: promotion is unobservable (bitwise equal to the
   closure tier at 1 and 4 workers), ski rental keeps short work on the
   closure tier, and every failure — no compiler, a failing build, a bad
   module — leaves results unchanged, is recorded once and never raises.
   Every test builds into its own temporary cache directory. *)

open Sf_util
open Sf_mesh
open Snowflake
open Sf_backends
open Sf_hpgmg
module Metrics = Sf_trace.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let iv = Ivec.of_list

(* Native code can only be asserted where the build-time compiler still
   exists; everywhere else the tests check the fallback's results. *)
let toolchain = Sys.file_exists (Native.compiler ())
let good_compiler = Native.compiler ()

(* temporary directories, removed when the run ends *)
let temp_dirs = ref []

let temp_dir prefix =
  let d = Filename.temp_dir prefix "" in
  temp_dirs := d :: !temp_dirs;
  d

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          try
            Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
            Sys.rmdir d
          with Sys_error _ -> ())
        !temp_dirs)

let fresh_cache () = Native.set_cache_dir (temp_dir "sf-native-test")

let with_compiler cc f =
  Native.set_compiler cc;
  Fun.protect ~finally:(fun () -> Native.set_compiler good_compiler) f

let counters () = (Metrics.snapshot ()).Metrics.counters
let native c name = List.assoc ("native." ^ name) c

(* counter growth since the snapshot [c0] *)
let promoted c0 = native (counters ()) "promotions" - native c0 "promotions"
let failed c0 = native (counters ()) "failures" - native c0 "failures"

let same_bits name a b =
  let da = Mesh.data a and db = Mesh.data b in
  check_int (name ^ ": length") (Float.Array.length da) (Float.Array.length db);
  Float.Array.iteri
    (fun i x ->
      let y = Float.Array.get db i in
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) then
        Alcotest.failf "%s: flat %d differs: %h vs %h" name i x y)
    da

(* ----------------------------------------------------------- programs *)

(* u[i,j] = 0.5·u[i,j-1] + 0.25·u[i,j] + 0.125·v[i,j]·u[i-1,j], in place:
   each cell reads the one written just before it in the same row. *)
let carry_group ?(k = 0.5) () =
  let rd g o = Expr.read g (iv o) in
  let expr =
    Expr.(
      (rd "u" [ 0; -1 ] *: const k)
      +: (rd "u" [ 0; 0 ] *: const 0.25)
      +: (rd "v" [ 0; 0 ] *: rd "u" [ -1; 0 ] *: const 0.125))
  in
  Group.make ~label:"carry"
    [
      Stencil.make ~label:"carry" ~output:"u" ~expr
        ~domain:(Domain.interior 2 ~ghost:1)
        ();
    ]

(* coarse[i] = Σ w·fine[2i+d] + fine[2i]·coarse[i]: two counters (the
   fine and coarse grids do not advance in lockstep) and a degree-2 term *)
let restrict_group () =
  let fine d =
    Expr.read_affine "fine" (Affine.make ~scale:(iv [ 2 ]) ~offset:(iv [ d ]))
  in
  let expr =
    Expr.(
      (fine 0 *: const 0.5) +: (fine 1 *: const 0.25)
      +: (fine 0 *: read "coarse" (iv [ 0 ]) *: const 0.125))
  in
  Group.make ~label:"restrict"
    [
      Stencil.make ~label:"restrict" ~output:"coarse" ~expr
        ~domain:(Domain.of_rect (Domain.rect ~lo:[ 0 ] ~hi:[ 8 ] ()))
        ();
    ]

(* a 1-d linear stencil with [taps] taps: a structure no other test uses *)
let taps_group taps =
  let expr =
    List.init taps (fun d ->
        Expr.(read "u" (iv [ d ]) *: const (1. /. float_of_int (d + 2))))
    |> List.fold_left Expr.( +: ) (Expr.const 1.)
  in
  Group.make ~label:(Printf.sprintf "taps%d" taps)
    [
      Stencil.make ~label:"taps" ~output:"out" ~expr
        ~domain:(Domain.of_rect (Domain.rect ~lo:[ 0 ] ~hi:[ -taps ] ()))
        ();
    ]

let grids_2d shape =
  Grids.of_list [ ("u", Mesh.random ~seed:17 shape); ("v", Mesh.random ~seed:23 shape) ]

let grids_restrict () =
  Grids.of_list
    [ ("fine", Mesh.random ~seed:5 (iv [ 17 ])); ("coarse", Mesh.random ~seed:6 (iv [ 8 ])) ]

let grids_1d n =
  Grids.of_list [ ("u", Mesh.random ~seed:3 (iv [ n ])); ("out", Mesh.create (iv [ n ])) ]

let run ?(config = Config.default) ?(backend = Jit.Compiled) ~mode ~shape group grids =
  let k = Jit.compile ~config backend ~shape group in
  Native.with_mode mode (fun () -> k.Kernel.run grids);
  grids

(* [group] run under [Force] equals the closure tier and the interpreter
   bit for bit. *)
let forced_matches ?config ?backend ~shape ~grids group =
  let closure = run ?config ?backend ~mode:Native.Off ~shape group (grids ()) in
  let native = run ?config ?backend ~mode:Native.Force ~shape group (grids ()) in
  let interp = grids () in
  (Jit.compile Jit.Interp ~shape group).Kernel.run interp;
  List.iter
    (fun g ->
      same_bits g (Grids.find closure g) (Grids.find native g);
      same_bits (g ^ " equals interp") (Grids.find interp g) (Grids.find native g))
    (Grids.names closure)

(* -------------------------------------------------------------- tests *)

let test_forced_bitwise () =
  fresh_cache ();
  let c0 = counters () in
  let shape = iv [ 9; 11 ] in
  forced_matches ~shape ~grids:(fun () -> grids_2d shape) (carry_group ());
  forced_matches ~shape:(iv [ 8 ]) ~grids:grids_restrict (restrict_group ());
  let c1 = counters () in
  if toolchain then begin
    check_int "two promotions" 2 (promoted c0);
    check_int "no failure" 0 (failed c0)
  end;
  (* another coefficient is the same structure: no further build *)
  forced_matches ~shape ~grids:(fun () -> grids_2d shape) (carry_group ~k:0.75 ());
  check_int "no rebuild for new values" (native c1 "compiles")
    (native (counters ()) "compiles")

(* A read in a denominator is a body like any other: [Nd.dinv Nd.vc]
   promotes and equals the interpreter. *)
let test_dinv_native () =
  fresh_cache ();
  let c0 = counters () in
  let op = Nd.vc ~dims:3 in
  let shape = iv [ 16; 16; 16 ] in
  let group = Group.make ~label:"dinv" [ Nd.dinv op ] in
  let grids () =
    Grids.of_list
      (("dinv", Mesh.create shape)
      :: List.init 3 (fun a ->
             (Nd.beta_name a, Mesh.random ~seed:(40 + a) ~lo:1. ~hi:2. shape)))
  in
  let params = [ ("inv_h2", 1. /. (0.0625 *. 0.0625)) ] in
  let interp = grids () and native = grids () in
  (Jit.compile Jit.Interp ~shape group).Kernel.run ~params interp;
  Native.with_mode Native.Force (fun () ->
      (Jit.compile Jit.Compiled ~shape group).Kernel.run ~params native);
  if toolchain then check_bool "dinv promoted" true (promoted c0 > 0);
  check_int "no failure" 0 (failed c0);
  same_bits "dinv equals interp" (Grids.find interp "dinv") (Grids.find native "dinv")

(* A solve on the native tier equals the closure tier's and the
   interpreter's, bit for bit, at 1 and 4 workers. *)
let test_mg_bitwise () =
  fresh_cache ();
  let c0 = counters () in
  let solve backend workers mode =
    let config =
      { Mg.default_config with Mg.backend; jit = Config.with_workers workers Config.default }
    in
    let s = Mg.create ~config ~n:16 () in
    Problem.setup_variable ~seed:3 (Mg.finest s);
    Mg.set_beta s Problem.beta_smooth;
    Native.with_mode mode (fun () ->
        for _ = 1 to 3 do
          Mg.vcycle s
        done);
    Level.u (Mg.finest s)
  in
  let interp = solve Jit.Interp 1 Native.Off in
  List.iter
    (fun (backend, workers) ->
      let name = Printf.sprintf "%s w%d" (Jit.backend_name backend) workers in
      let closure = solve backend workers Native.Off in
      same_bits name closure (solve backend workers Native.Force);
      same_bits (name ^ " equals interp") interp closure)
    [ (Jit.Compiled, 1); (Jit.Openmp, 1); (Jit.Openmp, 4) ];
  if toolchain then check_bool "mg promoted" true (promoted c0 > 0)

let test_ski_rental () =
  fresh_cache ();
  let group = taps_group 5 in
  let shape = iv [ 64 ] in
  let k = Jit.compile Jit.Compiled ~shape group in
  let c0 = counters () in
  let grids = grids_1d 64 in
  k.Kernel.run grids;
  check_int "one short run does not build" (native c0 "compiles")
    (native (counters ()) "compiles");
  (* keep running until the closure time pays for a build (50 ms seed) *)
  let reference = run ~mode:Native.Off ~shape group (grids_1d 64) in
  let t0 = Unix.gettimeofday () in
  while
    toolchain
    && promoted c0 = 0
    && Unix.gettimeofday () -. t0 < 20.
  do
    k.Kernel.run grids
  done;
  if toolchain then
    check_int "promoted once" 1 (promoted c0);
  k.Kernel.run grids;
  same_bits "after promotion" (Grids.find reference "out") (Grids.find grids "out")

(* One group at two shapes: the same structure with other strides bakes
   other deltas, so each shape gets its own module, and each equals the
   closure tier bit for bit.  A kernel that bound good meshes still
   certifies a new shape: an undersized one raises at bind. *)
let test_baked_per_shape () =
  let dir = temp_dir "sf-native-shapes" in
  Native.set_cache_dir dir;
  let c0 = counters () in
  let group = carry_group ~k:0.375 () in
  List.iter
    (fun shape -> forced_matches ~shape ~grids:(fun () -> grids_2d shape) group)
    [ iv [ 7; 9 ]; iv [ 10; 12 ] ];
  if toolchain then begin
    check_int "two promotions" 2 (promoted c0);
    check_int "two builds" 2 (native (counters ()) "compiles" - native c0 "compiles");
    check_int "two modules" 2
      (List.length
         (List.filter
            (fun f -> Filename.check_suffix f ".cmxs")
            (Array.to_list (Sys.readdir dir))))
  end;
  let shape = iv [ 7; 9 ] in
  let k = Jit.compile Jit.Compiled ~shape group in
  Native.with_mode Native.Force (fun () -> k.Kernel.run (grids_2d shape));
  List.iter
    (fun bad ->
      check_bool "new shape certified at bind" true
        (try
           ignore (k.Kernel.bind (grids_2d bad) : Kernel.instance);
           false
         with Invalid_argument _ -> true))
    [ iv [ 4; 4 ]; iv [ 7; 9; 2 ] ]

(* Force-run [group] [n] times under a broken compiler: results equal the
   closure tier's and exactly [failures] failure(s) are recorded. *)
let fallback ~compiler ~failures group =
  fresh_cache ();
  let shape = iv [ 32 ] in
  with_compiler compiler (fun () ->
      let c0 = counters () in
      let reference = run ~mode:Native.Off ~shape group (grids_1d 32) in
      for _ = 1 to 3 do
        let got = run ~mode:Native.Force ~shape group (grids_1d 32) in
        same_bits "fallback result" (Grids.find reference "out") (Grids.find got "out")
      done;
      check_int "failures recorded once" failures (failed c0);
      check_int "nothing promoted" 0 (promoted c0))

let test_missing_compiler () =
  fallback ~compiler:"/nonexistent/ocamlopt" ~failures:1 (taps_group 6);
  check_bool "reason kept" true
    (List.exists
       (fun m -> String.ends_with ~suffix:"no compiler at /nonexistent/ocamlopt" m)
       (Native.failures ()))

let test_failing_build () =
  if Sys.file_exists "/bin/false" then
    fallback ~compiler:"/bin/false" ~failures:1 (taps_group 7)

(* A "compiler" that succeeds but writes garbage where the module goes:
   the load fails with a Dynlink error. *)
let test_bad_module () =
  let dir = temp_dir "sf-native-cc" in
  let cc = Filename.concat dir "fake-ocamlopt" in
  Out_channel.with_open_text cc (fun oc ->
      output_string oc
        "#!/bin/sh\n\
         while [ $# -gt 0 ]; do\n\
        \  if [ \"$1\" = -o ]; then echo garbage > \"$2\"; fi\n\
        \  shift\n\
         done\n");
  Unix.chmod cc 0o755;
  fallback ~compiler:cc ~failures:1 (taps_group 8)

(* A cache directory other users can write into is never loaded from. *)
let test_shared_cache_dir () =
  let shape = iv [ 32 ] and group = taps_group 9 in
  let dir = temp_dir "sf-native-shared" in
  Unix.chmod dir 0o777;
  Native.set_cache_dir dir;
  let c0 = counters () in
  let reference = run ~mode:Native.Off ~shape group (grids_1d 32) in
  let got = run ~mode:Native.Force ~shape group (grids_1d 32) in
  same_bits "shared dir result" (Grids.find reference "out") (Grids.find got "out");
  check_int "nothing promoted" 0 (promoted c0);
  check_int "refusal recorded once" 1 (failed c0)

(* Runs that never promote leave the cache directory alone: [Off] does
   not even look for the compiler, and a short [Auto] run creates no
   directory. *)
let test_no_promotion_no_cache () =
  let shape = iv [ 32 ] and group = taps_group 10 in
  let dir = Filename.concat (temp_dir "sf-native-idle") "cache" in
  Native.set_cache_dir dir;
  with_compiler "/nonexistent/ocamlopt" (fun () ->
      let c0 = counters () in
      ignore (run ~mode:Native.Off ~shape group (grids_1d 32));
      check_int "no failure under Off" 0 (failed c0));
  ignore (run ~mode:Native.Auto ~shape group (grids_1d 32));
  check_bool "no cache directory" false (Sys.file_exists dir)

(* Processes promoting the same structures into one cache directory at the
   same time: none may load a half-written module. *)
let sibling exe = Filename.concat (Filename.dirname Sys.executable_name) exe

let test_concurrent_processes () =
  if toolchain then
    for round = 1 to 3 do
      let dir = temp_dir "sf-native-race" in
      let pids =
        List.init 3 (fun _ ->
            Unix.create_process (sibling "native_race_check.exe")
              [| "native_race_check.exe"; dir |]
              Unix.stdin Unix.stdout Unix.stderr)
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.failf "round %d: a racing process failed" round)
        pids;
      Array.iter
        (fun f ->
          check_bool ("only whole modules left: " ^ f) true
            (Filename.check_suffix f ".cmxs"))
        (Sys.readdir dir)
    done

let () =
  Alcotest.run "native"
    [
      ( "tier",
        [
          Alcotest.test_case "forced = closure, bitwise" `Quick test_forced_bitwise;
          Alcotest.test_case "mg bitwise at 1 and 4 workers" `Quick test_mg_bitwise;
          Alcotest.test_case "ski rental" `Quick test_ski_rental;
          Alcotest.test_case "one module per shape" `Quick test_baked_per_shape;
          Alcotest.test_case "dinv goes native" `Quick test_dinv_native;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "missing compiler" `Quick test_missing_compiler;
          Alcotest.test_case "failing build" `Quick test_failing_build;
          Alcotest.test_case "dynlink error" `Quick test_bad_module;
          Alcotest.test_case "shared cache dir refused" `Quick test_shared_cache_dir;
          Alcotest.test_case "no promotion, no cache dir" `Quick test_no_promotion_no_cache;
          Alcotest.test_case "concurrent processes" `Quick test_concurrent_processes;
        ] );
    ]
