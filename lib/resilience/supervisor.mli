(** Supervised execution: bounded-backoff retry within an ordered failover
    chain.

    {!run} executes the first attempt of an ordered chain; on failure it
    retries that attempt up to [policy.retries] times with bounded
    exponential backoff (transient faults heal here), then moves down the
    chain with a fresh retry budget (persistent faults exhaust a backend
    and fail over), and re-raises the last exception only when the whole
    chain is spent.  [Out_of_memory], [Stack_overflow] and
    [Assert_failure] are never absorbed.

    Every decision is observable: a retry bumps the [supervisor.retries]
    counter and, when tracing is on, records a zero-duration
    ["retry:<name>"] phase marker; a failover bumps
    [supervisor.failovers] and records ["failover:<name>"] with from/to
    arguments — so [--profile] shows exactly how a degraded run
    degraded.  The Jit-specific chain (recompiling a stencil group on the
    next backend) is assembled by [Sf_backends.Supervise]. *)

type policy = {
  retries : int;  (** per-attempt retry budget *)
  backoff_us : float;  (** first backoff sleep *)
  backoff_factor : float;
  max_backoff_us : float;
}

val default_policy : policy
(** 2 retries, 200µs initial backoff, ×4 growth, 20ms cap. *)

val run : ?policy:policy -> name:string -> (string * (unit -> 'a)) list -> 'a
(** [run ~name attempts] — [attempts] is the ordered [(label, thunk)]
    chain.  Raises [Invalid_argument] on an empty chain; otherwise returns
    the first successful thunk's value or re-raises the last failure. *)


(** {2 Per-request failure boundary}

    A long-lived host (the solve server) runs each request under
    {!protect}: any non-fatal exception becomes a structured {!verdict}
    the host can report to that one client, instead of a raised exception
    that would take the whole process down.  Hosts teach the boundary
    their domain-specific exceptions with {!register_classifier}. *)

type verdict = {
  code : string;  (** stable machine-readable class, e.g. ["fault"] *)
  message : string;
  fatal : bool;  (** must not be absorbed — the process is suspect *)
}

val register_classifier : (exn -> verdict option) -> unit
(** Classifiers are consulted newest-first before the built-in fallback
    ([Out_of_memory]/[Stack_overflow]/[Assert_failure] → fatal,
    anything else → ["internal"]). *)

val verdict_of_exn : exn -> verdict

val protect : label:string -> (unit -> 'a) -> ('a, verdict) result
(** Runs [f], turning a non-fatal exception into [Error verdict] (and,
    with tracing on, a ["fault-boundary:<label>"] marker carrying the
    code).  Fatal verdicts re-raise. *)
