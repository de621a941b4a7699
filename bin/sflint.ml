(* sflint: the whole-program static analyzer and schedule certifier.

   Loads stencil programs (s-expression form, docs/LANGUAGE.md), runs every
   analysis pass over them — per-stencil validation (SF001-SF004), the
   dataflow passes (SF011 uninitialized read, SF012 dead store),
   backend-plan certification (SF021-SF025) and, on request, the
   streaming-pipeline certifier (SF030-SF034, --pipeline) — and prints the
   findings as compiler-style text or as JSON.  Findings replicated across
   SPMD ranks are collapsed to one diagnostic with a rank-count suffix.
   Exit status: 0 clean (warnings/notes allowed), 1 when any
   error-severity diagnostic fired, 2 on usage or parse errors.
   docs/LINTING.md catalogues the codes; `--explain SFxxx` prints one
   entry with its fix hint. *)

open Cmdliner
open Sf_util

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let comma_list s =
  List.filter (fun x -> x <> "") (String.split_on_char ',' (String.trim s))

let print_codes () =
  List.iter
    (fun (code, sev, doc) ->
      Printf.printf "%s  %-7s  %s\n" code
        (Sf_analysis.Diagnostics.severity_to_string sev)
        doc)
    Sf_analysis.Diagnostics.catalogue

let print_explain code =
  let code = String.uppercase_ascii (String.trim code) in
  match Sf_analysis.Diagnostics.explain code with
  | Some (sev, doc, hint) ->
      Printf.printf "%s (%s): %s\n  fix: %s\n" code
        (Sf_analysis.Diagnostics.severity_to_string sev)
        doc hint;
      exit 0
  | None ->
      Printf.eprintf
        "sflint: unknown diagnostic code %S (--codes lists the catalogue)\n"
        code;
      exit 2

(* grid extents follow the codegen_dump convention: iteration shape is
   (n+2)^dims, and grids named fine_* (multigrid restriction sources) are
   twice the interior plus ghosts *)
let shapes_for ~dims ~n =
  let shape = Ivec.of_list (List.init dims (fun _ -> n + 2)) in
  let grid_shape name =
    if String.length name >= 5 && String.sub name 0 5 = "fine_" then
      Ivec.of_list (List.init dims (fun _ -> (2 * n) + 2))
    else shape
  in
  (shape, grid_shape)

let lint_file ~n ~params ~inputs ~backends ~config ~pipeline ~pipe_depth
    ~time_tile ~time_skew path =
  match Snowflake.Program_io.group_of_string (read_file path) with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok group ->
      let dims = Snowflake.Group.dims group in
      let shape, grid_shape = shapes_for ~dims ~n in
      let static =
        Sf_analysis.Lint.program ~shape ~grid_shape ?params ?inputs group
      in
      let certified =
        List.concat_map
          (fun backend ->
            Sf_backends.Schedule_check.certify config
              (Sf_backends.Jit.lower ~config backend ~shape group))
          backends
      in
      (* streaming-pipeline certification (SF030-SF034); a group without
         rank-qualified grids yields no pipeline findings *)
      let piped =
        if not (pipeline || pipe_depth <> None) then []
        else
          snd
            (Sf_analysis.Pipeline_check.analyze ?depth_override:pipe_depth
               ~budget_bytes:config.Sf_backends.Config.pipe_budget ~shape
               group)
      in
      (* temporal-blocking certification (SF024/SF025) for an explicit
         --time-tile depth, with --time-skew overriding the computed skew *)
      let tiled =
        match time_tile with
        | None -> []
        | Some reps -> (
            match
              Sf_backends.Timetile.plan ?skew:time_skew config ~shape ~reps
                group
            with
            | Some plan ->
                Sf_backends.Schedule_check.certify_timetile_plan config ~shape
                  plan
            | None ->
                Sf_backends.Schedule_check.certify_timetile config ~shape
                  group)
      in
      Ok
        (Sf_analysis.Diagnostics.collapse_ranks
           (Sf_analysis.Diagnostics.sort (static @ certified @ piped @ tiled)))

let run files n json params inputs backend workers multicolor codes explain
    pipeline pipe_depth fusion force_parallel time_tile time_skew =
  if codes then begin
    print_codes ();
    exit 0
  end;
  Option.iter print_explain explain;
  if files = [] then begin
    prerr_endline "sflint: no program files given (try --codes or --help)";
    exit 2
  end;
  let params = Option.map comma_list params in
  let inputs = Option.map comma_list inputs in
  let backends =
    match backend with
    | "openmp" -> [ Sf_backends.Jit.Openmp ]
    | "opencl" -> [ Sf_backends.Jit.Opencl ]
    | "all" -> [ Sf_backends.Jit.Openmp; Sf_backends.Jit.Opencl ]
    | "none" -> []
    | other ->
        Printf.eprintf "sflint: unknown backend %S (openmp|opencl|all|none)\n"
          other;
        exit 2
  in
  let config =
    {
      (Sf_backends.Config.with_workers workers Sf_backends.Config.default)
      with
      Sf_backends.Config.multicolor;
      fusion;
      force_parallel =
        (match force_parallel with Some s -> comma_list s | None -> []);
    }
  in
  let results =
    List.map
      (fun path ->
        ( path,
          lint_file ~n ~params ~inputs ~backends ~config ~pipeline ~pipe_depth
            ~time_tile ~time_skew path ))
      files
  in
  List.iter
    (fun (path, r) ->
      match r with
      | Error msg ->
          prerr_endline msg;
          exit 2
      | Ok _ -> ignore path)
    results;
  let results =
    List.map
      (function
        | path, Ok ds -> (path, ds) | _, Error _ -> assert false)
      results
  in
  if json then begin
    let file_obj (path, ds) =
      Printf.sprintf "{\"file\":\"%s\",\"diagnostics\":%s}"
        (Sf_analysis.Diagnostics.json_escape path)
        (Sf_analysis.Diagnostics.list_to_json ds)
    in
    Printf.printf "{\"version\":1,\"files\":[%s]}\n"
      (String.concat "," (List.map file_obj results))
  end
  else
    List.iter
      (fun (path, ds) ->
        match ds with
        | [] -> Printf.printf "%s: clean\n" path
        | _ ->
            Printf.printf "%s:\n%s" path (Sf_analysis.Diagnostics.render ds))
      results;
  let any_errors =
    List.exists (fun (_, ds) -> Sf_analysis.Diagnostics.has_errors ds) results
  in
  exit (if any_errors then 1 else 0)

let files_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc:"Stencil program file(s) (s-expression form).")

let n_arg =
  Arg.(value & opt int 8 & info [ "n"; "size" ] ~doc:"Interior size per axis (iteration shape is (n+2)^dims).")

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")

let params_arg =
  Arg.(value & opt (some string) None & info [ "params" ] ~doc:"Comma-separated scalar parameters the caller will bind; enables the SF004 check.")

let inputs_arg =
  Arg.(value & opt (some string) None & info [ "inputs" ] ~doc:"Comma-separated grids initialized before the group runs; makes SF011 an exact error instead of an inferred warning.")

let backend_arg =
  Arg.(value & opt string "all" & info [ "backend" ] ~doc:"Plan(s) to certify: openmp | opencl | all | none.")

let workers_arg =
  Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Worker count baked into the certified plans.")

let multicolor_arg =
  Arg.(value & flag & info [ "multicolor" ] ~doc:"Certify the multicolor-reordered plan variant.")

let codes_arg =
  Arg.(value & flag & info [ "codes" ] ~doc:"Print the diagnostic-code catalogue and exit.")

let explain_arg =
  Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"SFxxx" ~doc:"Print one catalogue entry (severity, description, fix hint) and exit; unknown codes exit 2.")

let pipeline_arg =
  Arg.(value & flag & info [ "pipeline" ] ~doc:"Run the streaming-pipeline certifier (SF030-SF034) on rank-qualified (SPMD) groups.")

let pipe_depth_arg =
  Arg.(value & opt (some int) None & info [ "pipeline-depth" ] ~docv:"D" ~doc:"Force every channel depth to D before the deadlock proof (implies --pipeline); 0 reproduces the SF031 witness.")

let fusion_arg =
  Arg.(value & flag & info [ "fusion" ] ~doc:"Certify the fused plan variant (SF023 on illegal fusion).")

let force_parallel_arg =
  Arg.(value & opt (some string) None & info [ "force-parallel" ] ~docv:"LABELS" ~doc:"Comma-separated stencil labels asserted parallel against the analysis (SF022; certification is the safety net).")

let time_tile_arg =
  Arg.(value & opt (some int) None & info [ "time-tile" ] ~docv:"K" ~doc:"Certify a temporal-blocking plan of depth K (SF024/SF025).")

let time_skew_arg =
  Arg.(value & opt (some int) None & info [ "time-skew" ] ~docv:"S" ~doc:"Override the time-tile skew (below the dependence slope reproduces SF024).")

let cmd =
  Cmd.v
    (Cmd.info "sflint" ~doc:"Static analyzer and schedule certifier for stencil programs")
    Term.(
      const run $ files_arg $ n_arg $ json_arg $ params_arg $ inputs_arg
      $ backend_arg $ workers_arg $ multicolor_arg $ codes_arg $ explain_arg
      $ pipeline_arg $ pipe_depth_arg $ fusion_arg $ force_parallel_arg
      $ time_tile_arg $ time_skew_arg)

let () = exit (Cmd.eval cmd)
