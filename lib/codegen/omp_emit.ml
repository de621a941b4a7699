open Sf_util
open Snowflake
open Sf_backends

let strides_of shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let emit ?(config = Config.default) ~shape ~grid_shapes (group : Group.t) =
  let grid_strides g = strides_of (grid_shapes g) in
  let stencils = Array.of_list (Group.stencils group) in
  let waves = Openmp_backend.waves_of config ~shape group in
  let body = ref [] in
  let push s = body := s :: !body in
  push (C_ast.Pragma "omp parallel");
  push (C_ast.Pragma "omp single");
  let wave_stmts =
    List.concat
      (List.mapi
         (fun w indices ->
           let stencil_stmts =
             List.concat_map
               (fun idx ->
                 let s = stencils.(idx) in
                 let parallel_ok = Plan.parallel_ok config ~shape s in
                 let label =
                   Printf.sprintf "stencil %s%s" s.Stencil.label
                     (if parallel_ok then ""
                      else " (sequential: loop-carried dependence)")
                 in
                 (* one OpenMP task per plan task: a tile, or the whole
                    sequential stencil *)
                 C_ast.Comment label
                 :: List.concat_map
                      (fun task ->
                        [
                          C_ast.Pragma "omp task";
                          C_ast.Block
                            (List.concat_map
                               (fun (s, tile) ->
                                 Lower.rect_loops ~grid_strides s tile)
                               task);
                        ])
                      (Plan.cluster_tasks config ~shape
                         ~split:(Openmp_backend.split config) [ s ]))
               indices
           in
           (C_ast.Comment (Printf.sprintf "wave %d" w) :: stencil_stmts)
           @ [
               C_ast.Pragma "omp taskwait";
               C_ast.Comment "barrier: next wave depends on this one";
             ])
         waves)
  in
  let outputs =
    List.map (fun s -> s.Stencil.output) (Group.stencils group)
    |> List.sort_uniq String.compare
  in
  let f =
    C_ast.
      {
        qualifier = "";
        ret = "void";
        fname = Lower.sanitize group.Group.label;
        params = Lower.func_params group ~output_grids:outputs;
        body = List.rev !body @ [ C_ast.Block wave_stmts ];
      }
  in
  C_pp.file_to_string ~includes:[ "omp.h" ]
    ~prelude:
      [
        "/* Generated by the Snowflake OpenMP micro-compiler.";
        Printf.sprintf " * group: %s  iteration shape: %s  workers: %d"
          group.Group.label (Ivec.to_string shape) config.Config.workers;
        " */";
      ]
    [ f ]
