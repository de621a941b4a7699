(* Standalone stencil benchmark CLI: time any of the paper's three
   operators on any backend at any size — the building block behind
   Figures 7 and 8, exposed for interactive exploration. *)

open Cmdliner
open Sf_backends
open Sf_hpgmg
open Sf_roofline

let operators =
  [
    ( "cc7pt",
      Snowflake.Group.make ~label:"cc_7pt"
        (Operators.boundaries ~grid:"u"
        @ [ Operators.laplacian_7pt ~out:"res" ~input:"u" ]),
      Bound.bytes_cc_7pt );
    ("jacobi", Operators.jacobi_smooth, Bound.bytes_cc_jacobi);
    ("gsrb", Operators.gsrb_smooth, Bound.bytes_vc_gsrb);
  ]

let run op_name n backend_name workers repeats tile autotune trace_file =
  let _, group, bytes =
    match List.find_opt (fun (nm, _, _) -> nm = op_name) operators with
    | Some x -> x
    | None ->
        Printf.eprintf "unknown operator %S (cc7pt|jacobi|gsrb)\n" op_name;
        exit 2
  in
  let backend =
    match Jit.backend_of_string backend_name with
    | Some b -> b
    | None ->
        Printf.eprintf "unknown backend %S\n" backend_name;
        exit 2
  in
  let config =
    {
      Config.default with
      workers;
      tile = (if tile = [] then None else Some tile);
    }
  in
  let level = Level.create ~n in
  Level.set_beta level Problem.beta_smooth;
  Level.fill_interior (Level.u level) level (fun x y z ->
      sin (3. *. x) *. cos (2. *. (y -. z)));
  Level.fill_interior (Level.f level) level Problem.rhs_sine;
  Baseline.init_dinv level;
  (* bandwidth must be known before any traced kernel runs so the spans
     carry their %-of-roofline-peak annotation *)
  let bw = Stream.measure ~n:1_000_000 ~trials:3 () in
  if trace_file <> None then begin
    Sf_trace.Trace.set_enabled true;
    Sf_trace.Trace.set_bandwidth_gbs bw
  end;
  let kernel = Jit.compile ~config backend ~shape:level.Level.shape group in
  let dt =
    Sf_harness.Timer.time ~label:("bench:" ^ op_name) ~warmup:1 ~repeats
      (kernel.Kernel.bind ~params:(Level.params level) level.Level.grids)
  in
  let points = float_of_int (n * n * n) in
  let host = Machine.host ~bandwidth_gbs:bw () in
  Printf.printf "%s @ %d^3 on %s (workers=%d): %.4f s  = %.2f Mstencil/s\n"
    op_name n (Jit.backend_name backend) workers dt (points /. dt /. 1e6);
  Printf.printf "roofline bound at measured %.2f GB/s and %g B/stencil: %.2f Mstencil/s\n"
    bw bytes
    (Bound.stencils_per_second ~machine:host ~bytes_per_stencil:bytes /. 1e6);
  Printf.printf "kernel plan: %s\n" kernel.Kernel.description;
  if autotune then begin
    let result =
      Sf_harness.Tune.best ~repeats ~backend ~shape:level.Level.shape
        ~params:(Level.params level) ~grids:level.Level.grids group
    in
    let tuned = result.Sf_harness.Tune.config in
    Printf.printf
      "autotuned: %.4f s with tile=%s multicolor=%b (vs %.4f s untuned)\n"
      result.Sf_harness.Tune.time
      (match tuned.Config.tile with
      | None -> "outer-chunks"
      | Some t -> String.concat "x" (List.map string_of_int t))
      tuned.Config.multicolor dt
  end;
  match trace_file with
  | Some path ->
      Sf_trace.Trace.write_chrome_json path;
      Printf.printf "wrote Chrome trace (%d events) to %s\n"
        (List.length (Sf_trace.Trace.events ()))
        path
  | None -> ()

let op_arg =
  Arg.(value & pos 0 string "gsrb" & info [] ~docv:"OPERATOR" ~doc:"cc7pt | jacobi | gsrb")

let n_arg = Arg.(value & opt int 32 & info [ "n"; "size" ] ~doc:"Interior size per axis.")
let backend_arg = Arg.(value & opt string "openmp" & info [ "backend" ] ~doc:"Backend name.")
let workers_arg =
  Arg.(
    value
    & opt int Config.default_workers
    & info [ "workers" ] ~doc:"Pool degree (default $(b,SF_WORKERS)).")
let repeats_arg = Arg.(value & opt int 3 & info [ "repeats" ] ~doc:"Timing repeats (best-of).")

let tile_arg =
  Arg.(value & opt (list int) [] & info [ "tile" ] ~doc:"Explicit tile sizes, e.g. 8,8,64.")

let autotune_arg =
  Arg.(value & flag & info [ "autotune" ] ~doc:"Search tile/multicolor candidates and report the best.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event JSON timeline to $(docv).")

let cmd =
  Cmd.v
    (Cmd.info "stencil_bench" ~doc:"Time one stencil operator on one backend")
    Term.(
      const run $ op_arg $ n_arg $ backend_arg $ workers_arg $ repeats_arg
      $ tile_arg $ autotune_arg $ trace_arg)

let () = exit (Cmd.eval cmd)
