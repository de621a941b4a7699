(* The benchmark harness: regenerates every evaluation artefact of the
   paper (Figures 6-9) plus the ablations documented in DESIGN.md, and a
   Bechamel microbenchmark suite comparing generated kernels to the
   hand-written baseline per operator.

   Usage:
     main.exe [command] [--size N] [--sizes 8,16,32] [--cycles N]
              [--workers N] [--repeats N] [--csv DIR] [--trace FILE]
   command: all (default) | stream | fig7 | fig8 | fig9 | tiling
            | multicolor | waves | fusion | fusion-bench | autotune
            | distributed | verify | codegen | micro | pool *)

open Sf_harness

let trace_file = ref None

let parse_args () =
  let opts = ref Experiments.default_opts in
  let cmd = ref "all" in
  let rec go = function
    | [] -> ()
    | "--trace" :: path :: rest ->
        trace_file := Some path;
        Sf_trace.Trace.set_enabled true;
        go rest
    | "--size" :: v :: rest ->
        opts := { !opts with Experiments.size = int_of_string v };
        go rest
    | "--sizes" :: v :: rest ->
        let sizes = List.map int_of_string (String.split_on_char ',' v) in
        opts := { !opts with Experiments.sizes };
        go rest
    | "--cycles" :: v :: rest ->
        opts := { !opts with Experiments.cycles = int_of_string v };
        go rest
    | "--workers" :: v :: rest ->
        opts := { !opts with Experiments.workers = int_of_string v };
        go rest
    | "--repeats" :: v :: rest ->
        opts := { !opts with Experiments.repeats = int_of_string v };
        go rest
    | "--csv" :: dir :: rest ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Experiments.csv_dir := Some dir;
        go rest
    | c :: rest when c <> "" && c.[0] <> '-' ->
        cmd := c;
        go rest
    | junk :: _ -> failwith ("unknown argument: " ^ junk)
  in
  go (List.tl (Array.to_list Sys.argv));
  (!cmd, !opts)

(* ------------------------------------------------- bechamel micro suite *)

let micro_tests () =
  let open Bechamel in
  let open Sf_backends in
  let open Sf_hpgmg in
  let n = 16 in
  let mk_level () =
    let level = Level.create ~n in
    Level.set_beta level Problem.beta_smooth;
    Baseline.init_dinv level;
    level
  in
  let snowflake_test name group =
    let level = mk_level () in
    let kernel = Jit.compile Jit.Compiled ~shape:level.Level.shape group in
    Test.make ~name
      (Staged.stage
         (kernel.Kernel.bind ~params:(Level.params level) level.Level.grids))
  in
  let hand_test name f =
    let level = mk_level () in
    Test.make ~name (Staged.stage (fun () -> f level))
  in
  Test.make_grouped ~name:"operators"
    [
      snowflake_test "cc7pt/snowflake"
        (Snowflake.Group.make ~label:"cc7"
           (Operators.boundaries ~grid:"u"
           @ [ Operators.laplacian_7pt ~out:"res" ~input:"u" ]));
      hand_test "cc7pt/hand" (fun level ->
          Baseline.laplacian_cc level ~out:(Level.res level)
            ~input:(Level.u level));
      snowflake_test "jacobi/snowflake" Operators.jacobi_smooth;
      hand_test "jacobi/hand" Baseline.jacobi_cc;
      snowflake_test "gsrb/snowflake" Operators.gsrb_smooth;
      hand_test "gsrb/hand" Baseline.smooth_gsrb;
    ]

let run_micro () =
  let open Bechamel in
  print_endline "\n==== Bechamel microbenchmarks (16^3 per operator) ====";
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  let t = Sf_util.Tabular.create ~headers:[ "kernel"; "time/run" ] in
  List.iter
    (fun (name, ns) ->
      Sf_util.Tabular.add_row t
        [ name; Printf.sprintf "%.3f ms" (ns /. 1e6) ])
    (List.sort compare !rows);
  Sf_util.Tabular.print t

let () =
  let cmd, opts = parse_args () in
  (match cmd with
  | "all" ->
      Experiments.run_all opts;
      run_micro ()
  | "stream" -> Experiments.run_stream opts
  | "fig7" -> Experiments.run_fig7 opts
  | "fig8" -> Experiments.run_fig8 opts
  | "fig9" -> Experiments.run_fig9 opts
  | "tiling" -> Experiments.run_tiling opts
  | "multicolor" -> Experiments.run_multicolor opts
  | "waves" -> Experiments.run_waves opts
  | "fusion" -> Experiments.run_fusion opts
  | "fusion-bench" -> Experiments.run_fusion_bench opts
  | "autotune" -> Experiments.run_autotune opts
  | "distributed" -> Experiments.run_distributed opts
  | "verify" -> Experiments.run_verify opts
  | "codegen" -> Experiments.run_codegen opts
  | "micro" -> run_micro ()
  | "pool" -> Experiments.run_pool opts
  | other ->
      Printf.eprintf "unknown command %S\n" other;
      exit 2);
  (match !trace_file with
  | Some path ->
      Sf_trace.Trace.write_chrome_json path;
      Printf.printf "wrote Chrome trace (%d events) to %s\n"
        (List.length (Sf_trace.Trace.events ()))
        path
  | None -> ());
  print_newline ()
