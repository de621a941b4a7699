(* `dune build @tune`: a bounded autotune of a 16^3 multigrid solve.

   Asserts the contract the tuning DB promises: the first tune measures
   and persists a winner; a second tune with the same key replays it
   from the DB without measuring; and a solve under the replayed plan is
   bitwise identical to a solve under the freshly-tuned plan — at 1 AND
   4 workers.  Everything is bounded: reps = the solver's smooth count,
   only the top-ranked candidates are timed, 4 V-cycles per solve. *)

open Sf_util
open Sf_mesh
open Sf_backends
open Sf_hpgmg

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("tune_check: " ^ m); exit 1) fmt

let check name ok = if not ok then fail "%s" name

let () =
  let db = Filename.temp_file "sf_tune_check" ".json" in
  Sys.remove db;
  Fun.protect ~finally:(fun () -> if Sys.file_exists db then Sys.remove db)
  @@ fun () ->
  let n = 16 in
  let backend = Jit.Openmp in
  let reps = Mg.default_config.Mg.smooths in
  let group = Operators.gsrb_smooth in
  let level = Level.create ~n in
  let shape = level.Level.shape in
  let jit_base = Config.with_workers 1 Config.default in
  let measured = ref 0 in
  let measure cfg =
    incr measured;
    let p = Autotune.plan_of_config cfg in
    let tiled = p.Autotune.time_tile > 1 in
    let kernel =
      Jit.compile ~config:cfg ~reps:(if tiled then reps else 1) backend ~shape
        group
    in
    let apps = if tiled then 1 else reps in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to apps do
      kernel.Kernel.run ~params:(Level.params level) level.Level.grids
    done;
    Unix.gettimeofday () -. t0
  in
  let tune () =
    Autotune.tune ~db ~config:jit_base ~backend ~shape ~reps ~measure group
  in
  let r1 = tune () in
  check "first tune must measure" (r1.Autotune.source = Autotune.Measured);
  check "first tune timed at least one candidate" (!measured > 0);
  check "winner persisted" (Sys.file_exists db);
  let before = !measured in
  let r2 = tune () in
  check "second tune must replay from the DB" (r2.Autotune.source = Autotune.Db);
  check "a DB hit must not re-measure" (!measured = before);
  check "replayed plan identical to tuned plan" (r1.Autotune.plan = r2.Autotune.plan);

  (* the plan's solve must replay bitwise-identically, at 1 and 4 workers *)
  let solve (r : Autotune.result) ~workers =
    let config =
      {
        Mg.default_config with
        Mg.backend;
        jit = Config.with_workers workers r.Autotune.config;
      }
    in
    let solver = Mg.create ~config ~n () in
    Problem.setup_poisson (Mg.finest solver);
    let norms = Mg.solve ~cycles:4 solver in
    (Level.u (Mg.finest solver), norms)
  in
  let u1, norms1 = solve r1 ~workers:1 in
  let u2, norms2 = solve r2 ~workers:1 in
  let u4, norms4 = solve r2 ~workers:4 in
  check "residual histories identical (tuned vs replayed)" (norms1 = norms2);
  check "residual histories identical (1 vs 4 workers)" (norms1 = norms4);
  (match Mesh.first_mismatch ~ulps:0 ~atol:0. u1 u2 with
  | None -> ()
  | Some (at, a, b) ->
      fail "tuned vs replayed solution differs at %s: %h vs %h"
        (String.concat "," (List.map string_of_int (Ivec.to_list at)))
        a b);
  (match Mesh.first_mismatch ~ulps:0 ~atol:0. u1 u4 with
  | None -> ()
  | Some (at, a, b) ->
      fail "1- vs 4-worker solution differs at %s: %h vs %h"
        (String.concat "," (List.map string_of_int (Ivec.to_list at)))
        a b);
  Printf.printf
    "tune_check: ok — plan [%s] persisted, replayed from DB, solve bitwise \
     identical at 1 and 4 workers (%d candidate(s) timed once)\n"
    (Autotune.describe r1.Autotune.plan)
    before
