(** Supervised compilation: {!Jit.compile} plus per-run retry,
    guard scans and an ordered backend failover chain.

    A kernel compiled here behaves exactly like the bare jitted kernel on
    a clean run (the supervised path engages only while
    [Sf_resilience.Fault] is armed or a guard mode is active — two atomic
    loads and a branch otherwise).  Under faults, each instance run goes
    under [Sf_resilience.Supervisor.run]: transient failures are retried
    with bounded backoff on the same backend; persistent ones compile and
    bind the same group on the next backend of {!chain} and replay the
    run there; after every successful run the group's output grids
    are guard-scanned so NaN/Inf corruption fails over too.  Every
    retry/failover is a counter increment ([supervisor.retries] /
    [supervisor.failovers]) and, when tracing is on, a span marker. *)

open Sf_util
open Snowflake

val chain : Jit.backend -> Jit.backend list
(** The failover order, starting with the argument:
    [opencl -> openmp -> compiled -> interp]; serial backends degrade to
    the interpreter; custom backends fail over to [compiled].  The last
    element has no fallback — its failure is re-raised. *)

val compile :
  ?policy:Sf_resilience.Supervisor.policy ->
  ?config:Config.t ->
  Jit.backend ->
  shape:Ivec.t ->
  Group.t ->
  Kernel.t
(** Like {!Jit.compile} (same cache, same instrumentation) with the
    supervised instances described above: [bind] binds the primary
    kernel only; a fallback backend is compiled (through the Jit cache,
    so a hit after the first failover) and bound only when an attempt
    fails. *)
