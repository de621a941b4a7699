(* The fuzz harness tested against itself: generator determinism and
   validity, the differential loop on clean backends, fault injection
   (the harness must catch a deliberately buggy backend and shrink the
   witness), corpus round-tripping, and the metamorphic oracles. *)

open Sf_fuzz

let check = Alcotest.(check bool)

(* ------------------------------------------------------------ generator *)

let test_gen_deterministic () =
  for seed = 0 to 19 do
    let a = Gen.spec ~seed () and b = Gen.spec ~seed () in
    Alcotest.(check string)
      (Printf.sprintf "seed %d reproduces" seed)
      (Gen.describe a) (Gen.describe b)
  done

let test_gen_valid () =
  for seed = 0 to 49 do
    let spec = Gen.spec ~seed () in
    match Gen.validate spec with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d generated an invalid spec: %s" seed e
  done

(* Gen.validate reads the declared shapes; building every grid and
   validating against the meshes must give the same verdict and the same
   message, for the checked-in corpus, generated seeds, and variants of
   each with a grid dropped, shrunk or of the wrong rank. *)
let validate_by_building (spec : Gen.spec) =
  let grids = Gen.build_grids spec in
  try
    List.iter
      (Sf_backends.Exec.validate_shapes ~shape:spec.Gen.shape ~grid_shape:(fun g ->
           Option.map Sf_mesh.Mesh.shape (Sf_mesh.Grids.find_opt grids g)))
      (Snowflake.Group.stencils spec.Gen.group);
    Ok ()
  with Invalid_argument m -> Error m

let variants (spec : Gen.spec) =
  let with_grids grids = { spec with Gen.grids } in
  match spec.Gen.grids with
  | [] -> [ spec ]
  | g :: rest ->
      let reshaped f = with_grids ({ g with Gen.gshape = f g.Gen.gshape } :: rest) in
      [
        spec;
        with_grids rest;
        reshaped (Array.map (fun e -> max 1 (e - 1)));
        reshaped (fun s -> Array.append s [| 2 |]);
      ]

let test_validate_shapes_only () =
  let files = Corpus.files "corpus" in
  let corpus =
    List.map
      (fun f ->
        match Corpus.load f with
        | Ok spec -> spec
        | Error e -> Alcotest.failf "corpus file does not load: %s" e)
      files
  in
  check "corpus present" true (corpus <> []);
  let generated = List.init 500 (fun k -> Gen.spec ~seed:(1000 + k) ()) in
  let errors = ref 0 in
  List.iter
    (fun spec ->
      List.iter
        (fun v ->
          let want = validate_by_building v in
          if Result.is_error want then incr errors;
          match (want, Gen.validate v) with
          | Ok (), Ok () -> ()
          | Error a, Error b when a = b -> ()
          | _, got ->
              let show = function Ok () -> "Ok" | Error m -> "Error " ^ m in
              Alcotest.failf "%s: built grids say %s, declared shapes say %s"
                v.Gen.label (show want) (show got))
        (variants spec))
    (corpus @ generated);
  check "variants exercise the error path" true (!errors >= 500)

let test_gen_seeds_differ () =
  let a = Gen.spec ~seed:1 () and b = Gen.spec ~seed:2 () in
  check "different seeds differ" true (Gen.describe a <> Gen.describe b)

let test_gen_max_dims () =
  for seed = 0 to 29 do
    let spec = Gen.spec ~max_dims:1 ~seed () in
    Alcotest.(check int)
      (Printf.sprintf "seed %d is 1-d" seed)
      1
      (Sf_util.Ivec.dims spec.Gen.shape)
  done

(* ----------------------------------------------------------- diff loop *)

let test_diff_clean () =
  for seed = 100 to 114 do
    let spec = Gen.spec ~seed () in
    let targets = Diff.targets_for ~only:None ~dims:(Sf_util.Ivec.dims spec.Gen.shape) in
    match Diff.check ~targets spec with
    | Ok () -> ()
    | Error d ->
        Alcotest.failf "backends diverge on clean seed %d: %s\n%s" seed
          (Diff.divergence_to_string d)
          (Gen.describe spec)
  done

let find_injected_failure bug =
  let rec go seed =
    if seed > 120 then Alcotest.fail "injected bug never triggered"
    else
      let spec = Gen.spec ~seed () in
      let targets =
        Diff.targets_for ~only:None ~dims:(Sf_util.Ivec.dims spec.Gen.shape)
        @ [ Diff.injected_target bug ]
      in
      match Diff.check ~targets spec with
      | Error d -> (spec, targets, d)
      | Ok () -> go (seed + 1)
  in
  go 42

let test_injected_bug_caught () =
  let _, _, d = find_injected_failure Diff.Drop_last_stencil in
  check "divergence blames the buggy backend" true (d.Diff.target = "sffuzz-buggy")

let test_injected_bug_shrinks () =
  let spec, targets, _ = find_injected_failure Diff.Drop_last_stencil in
  let fails s = Result.is_error (Diff.check ~targets s) in
  let small = Shrink.shrink ~fails spec in
  check "shrunk spec still fails" true (fails small);
  let n0 = Snowflake.Group.length spec.Gen.group in
  let n1 = Snowflake.Group.length small.Gen.group in
  check "shrinking never grows the program" true (n1 <= n0);
  (* drop-last only fires on >1 stencil, so the minimum is exactly two *)
  Alcotest.(check int) "minimal witness has two stencils" 2 n1

let test_perturb_bug_caught () =
  let _, _, d = find_injected_failure Diff.Perturb_first_cell in
  check "perturbation caught" true (d.Diff.target = "sffuzz-buggy");
  (* 1e-3 on one cell: a whole-value bug, far beyond ULP noise *)
  check "witness magnitude is the injected 1e-3" true
    (Float.abs (d.Diff.expected -. d.Diff.got) >= 1e-4)

let test_mis_skew_bug_caught () =
  (* the two-application mis-skewed temporal block must be caught by the
     multi-application oracle (two interp applications as reference) *)
  let _, _, d = find_injected_failure Diff.Mis_skew_tile in
  check "mis-skew caught" true (d.Diff.target = "sffuzz-buggy")

let test_driver_reports_failures () =
  let opts =
    {
      Driver.default_options with
      Driver.seed = 42;
      count = 10;
      oracles = false;
      inject = Some Diff.Drop_last_stencil;
    }
  in
  let report = Driver.run opts in
  check "campaign flags at least one failure" true (report.Driver.failures <> []);
  Alcotest.(check int) "exit code 1" 1 (Driver.report_exit_code report);
  let clean = Driver.run { opts with Driver.inject = None } in
  Alcotest.(check int) "clean campaign exits 0" 0
    (Driver.report_exit_code clean)

(* -------------------------------------------------------------- corpus *)

let test_corpus_roundtrip () =
  for seed = 200 to 214 do
    let spec = Gen.spec ~seed () in
    let text = Corpus.to_string ~note:"roundtrip" spec in
    match Corpus.of_string ~label:spec.Gen.label text with
    | Error e -> Alcotest.failf "corpus parse failed for seed %d: %s" seed e
    | Ok back ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d round-trips" seed)
          (Gen.describe spec) (Gen.describe back)
  done

let test_corpus_save_load () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "sffuzz-test-corpus" in
  let spec = Gen.spec ~seed:77 () in
  let path = Corpus.save ~dir ~note:"save/load" spec in
  check "written file is listed" true (List.mem path (Corpus.files dir));
  (match Corpus.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok back ->
      Alcotest.(check string) "load inverts save" (Gen.describe spec)
        (Gen.describe back));
  (match Corpus.replay path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replay of a clean spec failed: %s" e);
  Sys.remove path

(* ------------------------------------------------------------- oracles *)

let test_oracles_clean () =
  for seed = 300 to 314 do
    let spec = Gen.spec ~seed () in
    match Oracle.all spec with
    | [] -> ()
    | msgs ->
        Alcotest.failf "oracle failure on seed %d: %s\n%s" seed
          (String.concat "\n" msgs) (Gen.describe spec)
  done

let test_certify_gate_never_fires () =
  (* satellite: under the SF_VALIDATE-style gate, generated (race-free)
     programs must always pass plan certification on both pool backends *)
  for seed = 400 to 419 do
    let spec = Gen.spec ~seed () in
    match Oracle.certify_clean spec with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s\n%s" seed e (Gen.describe spec)
  done

let test_pipeline_agreement () =
  match Oracle.pipeline_agreement ~workers:4 () with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_pipeline_undersize_detected () =
  match Oracle.pipeline_undersize_detected () with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let () =
  Alcotest.run "fuzz"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "valid" `Quick test_gen_valid;
          Alcotest.test_case "seeds differ" `Quick test_gen_seeds_differ;
          Alcotest.test_case "max-dims respected" `Quick test_gen_max_dims;
        ] );
      ( "diff",
        [
          Alcotest.test_case "clean backends agree" `Quick test_diff_clean;
          Alcotest.test_case "injected drop caught" `Quick
            test_injected_bug_caught;
          Alcotest.test_case "injected drop shrinks" `Quick
            test_injected_bug_shrinks;
          Alcotest.test_case "injected perturb caught" `Quick
            test_perturb_bug_caught;
          Alcotest.test_case "injected mis-skew caught" `Quick
            test_mis_skew_bug_caught;
          Alcotest.test_case "driver reports failures" `Quick
            test_driver_reports_failures;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "roundtrip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "validate from declared shapes" `Quick
            test_validate_shapes_only;
          Alcotest.test_case "save/load/replay" `Quick test_corpus_save_load;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "all clean" `Quick test_oracles_clean;
          Alcotest.test_case "certify gate never fires" `Quick
            test_certify_gate_never_fires;
          Alcotest.test_case "pipeline matches bulk-sync" `Quick
            test_pipeline_agreement;
          Alcotest.test_case "undersize channel refused" `Quick
            test_pipeline_undersize_detected;
        ] );
    ]
