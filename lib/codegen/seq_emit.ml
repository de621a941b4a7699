open Sf_backends

let emit ~shape ~grid_shapes group =
  let t = Lower.prepare Jit.Compiled ~shape ~grid_shapes group in
  let task tk =
    C_ast.Comment ("stencil " ^ Plan.task_label tk)
    :: Lower.task_loops ~grid_strides:t.Lower.strides tk
  in
  let wave (w : Plan.wave) = List.concat_map task (Array.to_list w.tasks) in
  C_pp.file_to_string
    ~prelude:(Lower.banner t ~compiler:"sequential-C")
    [ Lower.host_func t (List.concat_map wave t.Lower.plan.Plan.waves) ]
