(** C + OpenMP source emission (paper §IV.A).

    Produces a complete C99 translation unit for a stencil group: one
    function printing the [Openmp] plan of [Jit.lower] — each plan task an
    [#pragma omp task], each wave closed by an [#pragma omp taskwait].
    It is the plan the executable OpenMP backend certifies and runs
    (fusion and sequential fallbacks included), so the emitted code is a
    faithful transcription of what this repository executes and
    measures. *)

val emit : Lower.emitter
