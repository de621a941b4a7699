(** Compilation options shared by the micro-compilers.

    These correspond to the tuning knobs the paper exposes when [compile] is
    called: thread count, tile sizes, multicolor reordering, and the
    barrier-placement strategy.  A [Config.t] holds nothing else: with
    the backend, the shape, the group and the application count it is the
    whole [Jit.compile] cache key.  Process-wide switches (tracing, fault
    arming) live with the substrate they switch, [Sf_trace.Trace] and
    [Sf_resilience.Fault]. *)

type schedule = Greedy_waves | Dag_levels

type t = {
  workers : int;  (** parallel degree (like OMP_NUM_THREADS / CUs) *)
  tile : int list option;
      (** explicit OpenMP tile sizes (lattice points per axis); [None]
          falls back to outer-axis chunking into [chunks] subtasks *)
  chunks : int;  (** subtasks per stencil when [tile = None] *)
  tall_skinny : int * int;  (** OpenCL 2-D tile (rows, cols) *)
  multicolor : bool;
      (** interleave the tiles of a domain-union (colored) stencil
          spatially instead of color-by-color *)
  schedule : schedule;
  inline_producers : bool;
      (** [Passes.fuse_pass]: substitute a producer's expression into its
          consumer when the analysis proves it legal (producer consumed at
          offset zero over an identical domain) and its write is
          unobservable, so the group has one stencil fewer.  Unlike
          [fusion], which keeps every stencil and shares tiles, this
          rewrites the group before any backend lowers it *)
  dce : dce;
      (** dead-stencil elimination before scheduling *)
  serial_cutoff : int;
      (** waves whose total point count falls below this run inline on the
          calling domain instead of being dispatched to the pool — the
          adaptive serial fallback that keeps coarse multigrid levels from
          paying dispatch latency for a handful of points *)
  certify : bool;
      (** run the [Schedule_check] wave-race certifier once per compile
          (cache entry); [Jit.compile] raises [Jit.Certification_failed]
          instead of returning a kernel whose plan it cannot prove
          race-free *)
  force_parallel : string list;
      (** stencil labels asserted safe to tile in parallel even when the
          analysis cannot prove them point-parallel — a user override;
          [certify] is the safety net that catches a wrong assertion *)
  fusion : bool;
      (** cross-wave sweep fusion ([Fusion]): partition the group into
          clusters of provably cofusible stencils and execute each cluster
          as per-tile multi-stencil tasks, so the cluster makes one pass
          over its grids instead of one pass per stencil.  Off by default;
          legality is re-proved per cluster, so enabling it on an
          unfusible group (e.g. GSRB's colour sweeps) degenerates to the
          unfused plan *)
  time_tile : int;
      (** temporal blocking depth [k] ([Timetile]) that [Mg] and
          [Autotune] request: they compile their smoother with
          [Jit.compile ~reps:k], which folds [k] consecutive applications
          of the group into one skewed time-tiled sweep costing ~one pass
          of memory traffic.  [1] disables it.  [Jit.compile] itself reads
          the application count from [~reps], never from this field *)
  time_block : int;
      (** outer-axis block size (lattice points) for the time-tiled sweep;
          [0] picks a size automatically *)
}

and dce = No_dce | Dce of string list  (** live output grids *)

val default_workers : int
(** [SF_WORKERS] from the environment, else 1. *)

val default_serial_cutoff : int
(** [SF_SERIAL_CUTOFF] from the environment, else 1024 points (an 8^3
    multigrid level stays inline; 16^3 and up go parallel). *)

val default_certify : bool
(** [SF_VALIDATE] from the environment ([1]/[true]/[yes]/[on]), else
    false. *)

val default_fusion : bool
(** [SF_FUSION] from the environment ([1]/[true]/[yes]/[on]), else
    false. *)

val default : t
(** Sequential-friendly defaults: [workers] = {!default_workers}, no
    explicit tile, [chunks = 8], tall-skinny [8 x 64], multicolor off,
    greedy waves, no fusion, no DCE,
    [serial_cutoff] = {!default_serial_cutoff},
    [certify] = {!default_certify}, no forced-parallel overrides,
    [fusion] = {!default_fusion}, [time_tile = 1] (off),
    [time_block = 0] (auto). *)

val with_workers : int -> t -> t
