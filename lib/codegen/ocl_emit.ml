let opencl =
  Gpu_emit.
    {
      compiler = "OpenCL";
      header = "#pragma OPENCL EXTENSION cl_khr_fp64 : enable";
      kernel = "__kernel";
      space = "__global ";
      restrict = "restrict";
      global_id = (fun d -> C_ast.Call ("get_global_id", [ C_ast.Int d ]));
      launch =
        (fun cfg fname -> function
          | None ->
              Printf.sprintf
                "clEnqueueNDRangeKernel(queue, %s, /*global=*/{1}, \
                 /*local=*/{1});"
                fname
          | Some cnt ->
              let trows, tcols = cfg.Sf_backends.Config.tall_skinny in
              Printf.sprintf
                "clEnqueueNDRangeKernel(queue, %s, /*global=*/{%s}, \
                 /*local(tall-skinny)=*/{%d, %d, 1});"
                fname (Gpu_emit.extents cnt) tcols trows);
    }

let emit = Gpu_emit.emit opencl
