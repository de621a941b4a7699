(** A persistent work-sharing pool over OCaml domains.

    This is the substrate standing in for the paper's OpenMP runtime.  The
    paper's backend amortises thread startup across the whole run: OpenMP
    keeps its worker threads alive between parallel regions and farms tasks
    to them.  This module does the same with domains — one process-wide set
    of worker domains is spawned lazily on first use, parks on a
    mutex/condition pair while idle, and executes task batches published
    through a single epoch-stamped slot with an atomic work index.  A wave
    join is therefore a fence over the shared slot, not a round of
    [Domain.spawn]/[Domain.join] pairs.

    A {!t} is a cheap *view* of that shared domain set: it only records the
    degree of parallelism (like [OMP_NUM_THREADS]) and the serial cutoff.
    Creating one allocates nothing and spawns nothing; every kernel
    compiled by the OpenMP/OpenCL micro-compilers shares the same hot
    workers.

    Tasks within one batch MUST be independent — that is exactly what the
    Diophantine analysis certifies before a backend enqueues them.

    Re-entrancy: a batch submitted from inside a pool task (same or other
    view) executes inline on the calling domain instead of deadlocking on
    the publication slot.  Exceptions raised by tasks abort the batch (the
    remaining tasks are skipped), the join still completes, the first
    exception is re-raised on the submitter, and the pool stays usable. *)

type t

val create : workers:int -> t
(** A view capped at [workers] (values below 2 mean inline execution).
    Cheap: worker domains are global, spawned lazily on first parallel
    batch, and shared by every view.  The serial cutoff defaults to
    {!Config.default_serial_cutoff}. *)

val with_serial_cutoff : int -> t -> t
(** Set the lattice-point threshold below which a batch carrying a
    [points] hint runs inline — dispatching a handful of points to the
    pool costs more than computing them. *)

val global : unit -> t
(** The default view, sized from [SF_WORKERS] (via {!Config.default}). *)

val workers : t -> int

val sequential : t
(** A view that always runs inline. *)

val run_tasks : ?points:int -> t -> (unit -> unit) array -> unit
(** Execute all tasks and return when every one has finished.  Tasks are
    distributed dynamically (an atomic work counter — task farming, not
    static chunking, matching the paper's OpenMP backend).  [points] is the
    total number of lattice points the batch touches; batches below the
    view's serial cutoff run inline (the adaptive serial fallback that
    keeps coarse multigrid levels cheap).  Exceptions in tasks are
    re-raised on the caller after the join. *)

val parallel_range : ?grain:int -> t -> int -> (int -> int -> unit) -> unit
(** [parallel_range ~grain pool n f] covers [0, n) with disjoint chunks of
    at most [grain] indices and calls [f lo hi] (hi exclusive) for each —
    one closure per *chunk*, not per index.  [grain] defaults to about four
    chunks per worker.  [n] counts as the batch's lattice points: ranges
    below the view's serial cutoff run inline (chunk by chunk, on the
    calling domain) exactly as {!run_tasks} does with a [points] hint. *)

val parallel_for : ?grain:int -> t -> int -> (int -> unit) -> unit
(** [parallel_for pool n f] runs [f 0 .. f (n-1)]; a thin wrapper over
    {!parallel_range} kept for compatibility. *)

val shutdown : unit -> unit
(** Park-then-join every worker domain.  Idempotent; registered [at_exit].
    The pool remains usable afterwards (workers respawn lazily on the next
    parallel batch).  Safe to reach from {e any} domain, including a worker
    itself — e.g. the [at_exit] invocation after user code called [exit]
    from inside a pool chunk: the calling domain is never joined (it stays
    reapable by a later shutdown from another domain), so process exit
    cannot deadlock on a self-join. *)

(** {2 Instrumentation}

    The pool counts into {!Sf_trace.Metrics} whether or not tracing is on:
    - [pool.spawned]: worker domains spawned;
    - [pool.batches]: parallel batches dispatched through the shared slot;
    - [pool.chunks]: chunks drained by dispatched batches, run or skipped;
    - [pool.stolen]: chunks drained by helper domains (not the submitter);
    - [pool.inline]: batches run inline (sequential views, single tasks,
      nested submissions and below-cutoff waves/ranges);
    - [pool.skipped]: chunks drained {e without running} because their
      batch had already failed — the abort path's footprint;
    - the gauge [pool.live_domains]: worker domains currently alive, which
      {!Sf_trace.Metrics.reset} leaves as it is.

    When tracing is enabled ({!Sf_trace.Trace.on}) each executed chunk is
    also a [chunk] span; when disabled that site costs one atomic load and
    a branch. *)
