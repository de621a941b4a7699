(* Dump the C/OpenMP, OpenCL or CUDA source a micro-compiler emits for one
   of the built-in stencil groups — the inspectable artefact of the paper's
   "rendered into the configured performance language" step.  The source
   prints the plan the JIT executes for the same options (SF_FUSION
   included). *)

open Cmdliner
open Sf_util
open Sf_hpgmg

let groups =
  [
    ("gsrb", Operators.gsrb_smooth);
    ("jacobi", Operators.jacobi_smooth);
    ( "cc7pt",
      Snowflake.Group.make ~label:"cc_7pt"
        (Operators.boundaries ~grid:"u"
        @ [ Operators.laplacian_7pt ~out:"res" ~input:"u" ]) );
    ( "residual",
      Snowflake.Group.make ~label:"residual"
        (Operators.boundaries ~grid:"u" @ [ Operators.residual_vc ]) );
    ("restrict", Snowflake.Group.make ~label:"restrict" [ Operators.restriction ]);
  ]

let run group_name lang n workers file =
  let group =
    match file with
    | Some path -> (
        let text =
          let ic = open_in path in
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          s
        in
        match Snowflake.Program_io.group_of_string text with
        | Ok g -> g
        | Error msg ->
            Printf.eprintf "%s: %s\n" path msg;
            exit 2)
    | None -> (
        match List.assoc_opt group_name groups with
        | Some g -> g
        | None ->
            Printf.eprintf "unknown group %S (%s)\n" group_name
              (String.concat "|" (List.map fst groups));
            exit 2)
  in
  let dims = Snowflake.Group.dims group in
  let e = n + 2 in
  let shape = Ivec.of_list (List.init dims (fun _ -> e)) in
  let grid_shapes name =
    (* restriction reads a grid twice the size of the iteration space *)
    if String.length name >= 5 && String.sub name 0 5 = "fine_" then
      Ivec.of_list (List.init dims (fun _ -> (2 * n) + 2))
    else shape
  in
  let config = Sf_backends.Config.with_workers workers Sf_backends.Config.default in
  (* static diagnostics first, as the JIT front-end would report them *)
  let issues =
    Sf_analysis.Validate.group ~shape ~grid_shape:grid_shapes group
  in
  List.iter
    (fun i -> Printf.eprintf "// %s\n" (Sf_analysis.Validate.issue_to_string i))
    issues;
  if List.exists Sf_analysis.Validate.is_error issues then exit 1;
  let emit =
    match lang with
    | "c" | "seq" -> Sf_codegen.Seq_emit.emit
    | "openmp" -> Sf_codegen.Omp_emit.emit ~config
    | "opencl" -> Sf_codegen.Ocl_emit.emit ~config
    | "cuda" -> Sf_codegen.Cuda_emit.emit ~config
    | other ->
        Printf.eprintf "unknown language %S (c|openmp|opencl|cuda)\n" other;
        exit 2
  in
  (* an emitter refuses names that would collide in C *)
  match emit ~shape ~grid_shapes group with
  | src -> print_string src
  | exception Invalid_argument msg ->
      prerr_endline msg;
      exit 1

let group_arg =
  Arg.(value & pos 0 string "gsrb" & info [] ~docv:"GROUP" ~doc:"Stencil group to compile.")

let lang_arg =
  Arg.(value & opt string "openmp" & info [ "lang" ] ~doc:"c | openmp | opencl | cuda")

let n_arg = Arg.(value & opt int 8 & info [ "n"; "size" ] ~doc:"Interior size per axis.")
let workers_arg = Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Worker count baked into the plan.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~doc:"Read the stencil group from an s-expression program file instead of using a built-in group.")

let cmd =
  Cmd.v
    (Cmd.info "codegen_dump" ~doc:"Print micro-compiler C/OpenCL output")
    Term.(const run $ group_arg $ lang_arg $ n_arg $ workers_arg $ file_arg)

let () = exit (Cmd.eval cmd)
