open Sf_util
open Sf_mesh
open Sf_backends

let run ?fill backend config (spec : Gen.spec) =
  let grids = Gen.build_grids ?fill spec in
  let kernel = Jit.compile ~config backend ~shape:spec.Gen.shape spec.Gen.group in
  kernel.Kernel.run ~params:spec.Gen.params grids;
  grids

(* ----------------------------------------------------- pool determinism *)

let pool_determinism ?(workers = 4) (spec : Gen.spec) =
  let config = Config.with_workers workers Config.default in
  let diags =
    Schedule_check.certify config
      (Jit.lower ~config Jit.Openmp ~shape:spec.Gen.shape spec.Gen.group)
  in
  if Sf_analysis.Diagnostics.has_errors diags then Ok ()
  else
    let serial = run Jit.Openmp (Config.with_workers 1 Config.default) spec in
    let parallel = run Jit.Openmp config spec in
    let rec go = function
      | [] -> Ok ()
      | name :: rest -> (
          let a = Grids.find serial name and b = Grids.find parallel name in
          match Mesh.first_mismatch a b with
          | None -> go rest
          | Some (p, x, y) ->
              Error
                (Printf.sprintf
                   "certified race-free plan is nondeterministic: grid %s at \
                    %s: 1 worker %.17g vs %d workers %.17g"
                   name (Ivec.to_string p) x workers y))
    in
    go (Grids.names serial)

(* -------------------------------------------------------- certify gate *)

let certify_clean (spec : Gen.spec) =
  let config = Config.with_workers 4 Config.default in
  let static =
    List.concat_map
      (fun backend ->
        Schedule_check.certify config
          (Jit.lower ~config backend ~shape:spec.Gen.shape spec.Gen.group))
      [ Jit.Openmp; Jit.Opencl ]
  in
  if Sf_analysis.Diagnostics.has_errors static then
    Error
      (Printf.sprintf
         "generated (race-free) program failed plan certification:\n%s"
         (Sf_analysis.Diagnostics.render static))
  else
    let certified = { config with Config.certify = true } in
    let gate backend =
      match run backend certified spec with
      | (_ : Grids.t) -> Ok ()
      | exception Jit.Certification_failed { backend; diagnostics; _ } ->
          Error
            (Printf.sprintf
               "SF_VALIDATE gate fired on a generated program (backend %s):\n%s"
               backend
               (Sf_analysis.Diagnostics.render diagnostics))
    in
    let ( let* ) = Result.bind in
    let* () = gate Jit.Openmp in
    gate Jit.Opencl

(* --------------------------------------------------- SF011 vs NaN poison *)

let sf011_nan_agreement (spec : Gen.spec) =
  let inputs = Gen.inputs spec in
  let diags =
    Sf_analysis.Lint.uninitialized_reads ~shape:spec.Gen.shape ~inputs
      spec.Gen.group
  in
  if Sf_analysis.Diagnostics.has_errors diags then
    (* The program really does read uninitialised cells; NaN there is
       expected and may or may not survive later overwrites, so the clean
       direction is the only sound assertion. *)
    Ok ()
  else
    let clean = run Jit.Interp Config.default spec in
    let poisoned = run ~fill:Float.nan Jit.Interp Config.default spec in
    let rec go = function
      | [] -> Ok ()
      | name :: rest ->
          let a = Grids.find clean name and b = Grids.find poisoned name in
          let da = Mesh.data a and db = Mesh.data b in
          let n = Float.Array.length da in
          let rec cell i =
            if i >= n then go rest
            else
              let x = Float.Array.get da i and y = Float.Array.get db i in
              if Float.is_nan y then
                if x = 0. || Float.is_nan x then
                  cell (i + 1) (* never written: kept its fill *)
                else
                  Error
                    (Printf.sprintf
                       "SF011-clean program leaked NaN into a written cell: \
                        grid %s flat index %d (clean value %.17g)"
                       name i x)
              else if x = y then cell (i + 1)
              else
                Error
                  (Printf.sprintf
                     "SF011-clean program depends on scratch contents: grid \
                      %s flat index %d: %.17g (zero fill) vs %.17g (NaN fill)"
                     name i x y)
          in
          cell 0
    in
    go (Grids.names clean)

(* --------------------------------------------------- pipelined SPMD *)

(* The pipelined executor's promise mirrors pool_determinism's: when the
   channel certifier passes a plan, running it through the bounded rings
   must be bit-identical to the bulk-synchronous exchange, at any worker
   count.  The subject is a fixed 2-rank GSRB decomposition (generated
   specs are single-rank, so this oracle runs once per campaign, not per
   spec). *)

let mk_spmd () =
  let spmd = Sf_distributed.Spmd.create ~rank_grid:[ 2 ] ~local_n:8 in
  Sf_distributed.Spmd.init_dinv spmd;
  Sf_distributed.Spmd.fill_interior spmd ~base:"u" (fun x ->
      sin (3.0 *. x.(0)));
  Sf_distributed.Spmd.fill_interior spmd ~base:"f" (fun x ->
      cos (2.0 *. x.(0)));
  spmd

let pipeline_agreement ?(workers = 4) () =
  let sweeps = 3 in
  let bulk = mk_spmd () in
  for _ = 1 to sweeps do
    Sf_distributed.Spmd.run_group bulk
      (Sf_distributed.Spmd.gsrb_smooth_group bulk)
  done;
  let oracle_u = Sf_distributed.Spmd.gather bulk ~base:"u" in
  let rec go = function
    | [] -> Ok ()
    | w :: rest -> (
        let spmd = mk_spmd () in
        let config = Config.with_workers w Config.default in
        let pipe =
          Sf_distributed.Pipeline.create ~config spmd
            (Sf_distributed.Spmd.gsrb_smooth_group spmd)
        in
        Sf_distributed.Pipeline.run ~sweeps pipe;
        let got = Sf_distributed.Spmd.gather spmd ~base:"u" in
        match Mesh.first_mismatch ~ulps:0 ~atol:0. oracle_u got with
        | None -> go rest
        | Some (p, x, y) ->
            Error
              (Printf.sprintf
                 "certified pipeline diverges from bulk-synchronous Spmd: \
                  %d worker(s), grid u at %s: bulk %.17g vs pipelined %.17g"
                 w (Ivec.to_string p) x y))
  in
  go [ 1; workers ]

let pipeline_undersize_detected () =
  let spmd = mk_spmd () in
  let pipe =
    Sf_distributed.Pipeline.create spmd
      (Sf_distributed.Spmd.gsrb_smooth_group spmd)
  in
  Sf_distributed.Pipeline.inject_undersize pipe;
  match Sf_distributed.Pipeline.run pipe with
  | () ->
      Error
        "undersized channel ran to completion: the SF034 depth gate did not \
         fire"
  | exception Jit.Certification_failed { backend = "pipeline"; diagnostics; _ }
    when List.exists
           (fun (d : Sf_analysis.Diagnostics.t) ->
             d.Sf_analysis.Diagnostics.code = "SF034")
           diagnostics ->
      Ok ()
  | exception e ->
      Error
        (Printf.sprintf
           "undersized channel raised %s instead of Certification_failed \
            with SF034"
           (Printexc.to_string e))

let all spec =
  List.filter_map
    (fun oracle -> match oracle spec with Ok () -> None | Error m -> Some m)
    [ pool_determinism ?workers:None; certify_clean; sf011_nan_agreement ]
