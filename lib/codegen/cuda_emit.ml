let axis = [| "x"; "y"; "z" |]

let cuda =
  Gpu_emit.
    {
      compiler = "CUDA";
      header = "#include <cuda_runtime.h>";
      kernel = "__global__";
      space = "";
      restrict = "__restrict__";
      global_id =
        (fun d ->
          let v f = C_ast.Var (Printf.sprintf "%s.%s" f axis.(d)) in
          C_ast.(Bin ("+", Bin ("*", v "blockIdx", v "blockDim"), v "threadIdx")));
      launch =
        (fun cfg fname -> function
          | None -> Printf.sprintf "%s<<<1, 1>>>(...);" fname
          | Some cnt ->
              let trows, tcols = cfg.Sf_backends.Config.tall_skinny in
              let block =
                match Array.length cnt with
                | 1 -> Printf.sprintf "dim3(%d)" tcols
                | 2 -> Printf.sprintf "dim3(%d, %d)" tcols trows
                | _ -> Printf.sprintf "dim3(%d, %d, 1)" tcols trows
              in
              Printf.sprintf "%s<<<ceil_div(dim3(%s), %s), %s>>>(...);" fname
                (Gpu_emit.extents cnt) block block);
    }

let emit = Gpu_emit.emit cuda
