open Sf_backends

let emit ?config ~shape ~grid_shapes group =
  let t = Lower.prepare ?config Jit.Openmp ~shape ~grid_shapes group in
  let task tk =
    let note =
      if Lower.sequential t tk then " (sequential: loop-carried dependence)"
      else ""
    in
    [
      C_ast.Comment (Printf.sprintf "stencil %s%s" (Plan.task_label tk) note);
      C_ast.Pragma "omp task";
      C_ast.Block (Lower.task_loops ~grid_strides:t.Lower.strides tk);
    ]
  in
  let wave i (w : Plan.wave) =
    (C_ast.Comment (Printf.sprintf "wave %d" i)
    :: List.concat_map task (Array.to_list w.tasks))
    @ [ C_ast.Pragma "omp taskwait" ]
  in
  let body = List.concat (List.mapi wave t.Lower.plan.Plan.waves) in
  C_pp.file_to_string ~includes:[ "omp.h" ]
    ~prelude:(Lower.banner t ~compiler:"OpenMP")
    [
      Lower.host_func t
        C_ast.[ Pragma "omp parallel"; Pragma "omp single"; Block body ];
    ]
