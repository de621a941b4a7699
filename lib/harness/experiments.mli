(** Experiment drivers: one entry point per evaluation artefact of the
    paper (see DESIGN.md's experiment index and EXPERIMENTS.md for
    paper-vs-measured records).

    Each driver prints a self-contained table to stdout.  Measured numbers
    come from this host; numbers for the paper's machines (Core i7-4765T,
    K20c) are roofline-model projections, labelled as such — the shape of
    the comparison (who wins, by what factor) is the reproduction target,
    not the absolute rates. *)

type opts = {
  size : int;  (** cube edge for fixed-size experiments (paper: 256) *)
  sizes : int list;  (** sweep sizes for Fig. 8 (paper: 32..256) *)
  cycles : int;  (** V-cycles for the solver benchmark (paper: 10) *)
  workers : int;  (** pool degree for the OpenMP backend *)
  repeats : int;  (** timing repeats (best-of) *)
}

val csv_dir : string option ref
(** When set, every printed table is also written as [<name>.csv] into
    this directory — the raw data series behind each figure. *)

val default_opts : opts
(** size 32, sizes [8;16;32;64], cycles 4, workers 1, repeats 3 — sized
    for a single-core container; raise via the CLI for paper-scale
    runs. *)

val run_stream : opts -> unit
(** E1 (Fig. 6): the modified STREAM dot-product bandwidth. *)

val run_fig7 : opts -> unit
(** E2 (Fig. 7): stencils/s for CC 7-pt, CC Jacobi, VC GSRB at a fixed
    size, Snowflake vs hand-written vs roofline, CPU measured + GPU
    modelled. *)

val run_fig8 : opts -> unit
(** E3 (Fig. 8): VC GSRB smoother time across problem sizes. *)

val run_fig9 : opts -> unit
(** E4 (Fig. 9): full GMG solve throughput (DOF/s). *)

val run_tiling : opts -> unit
(** A1: tile-size sweep on the GSRB smoother (OpenMP backend). *)

val run_multicolor : opts -> unit
(** A2: multicolor reordering on/off. *)

val run_waves : opts -> unit
(** A3: analysis-driven wave schedule vs a barrier after every stencil. *)

val run_fusion : opts -> unit
(** A4: the fusion pass on a 2-D unsharp-mask pipeline (point-wise sharpen
    folded into the blur), with result-equality guaranteed by the pass
    tests. *)

val run_autotune : opts -> unit
(** A5: measured tile/multicolor autotuning on the GSRB smoother. *)

val run_distributed : opts -> unit
(** D1: simulated SPMD GSRB (stencil-expressed halo exchange) vs the
    single-domain smoother of the same global size. *)

val run_pool : opts -> unit
(** P0: per-wave dispatch latency of the persistent worker-domain pool vs
    the seed's spawn-per-wave executor, for 1..workers and both empty and
    16³-point waves.  Prints its table only; the tracked dispatch figure
    is perfbench's [pool.dispatch_us] row. *)

val run_fusion_bench : opts -> unit
(** F1: unfused vs fused-config vs temporally-blocked 4-sweep GSRB at
    32³/64³/128³ on the OpenMP backend, with model bytes/cell, measured
    wall-clock and % of STREAM roofline per variant.  Writes
    [BENCH_fusion.json] (headline: bytes/cell and wall-clock ratios of
    4 plain sweeps vs one time-depth-4 pass) into the working directory
    so the traffic trajectory is tracked across PRs. *)

val run_verify : opts -> unit
(** V0: an HPGMG-style correctness gate printed into the benchmark log —
    convergence factor, discretisation error, DSL-vs-hand agreement,
    backend agreement, plan conflict-freedom. *)

val run_codegen : opts -> unit
(** Emit the OpenMP and OpenCL C sources for the GSRB smoother (a sample of
    the micro-compiler output; line counts reported). *)

val run_all : opts -> unit
