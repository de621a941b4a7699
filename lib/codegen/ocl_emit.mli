(** OpenCL C source emission (paper §IV.B): {!Gpu_emit} in the OpenCL
    dialect — [__kernel] functions over [__global] grids, work-items from
    [get_global_id], and a host sketch of [clEnqueueNDRangeKernel] calls
    with the tall-skinny local size. *)

val emit : Lower.emitter
