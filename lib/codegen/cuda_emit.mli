(** CUDA C emission — the micro-compiler the paper lists as future work
    (§VII: "explore the creation of CUDA, OpenACC, or OpenMP 4
    micro-compilers"): {!Gpu_emit} in the CUDA dialect — [__global__]
    kernels over [__restrict__] pointers (nvcc compiles C++, which has no
    [restrict]), thread ids from [blockIdx * blockDim + threadIdx], and a
    host sketch of [<<<grid, block>>>] launches on one stream. *)

val emit : Lower.emitter
