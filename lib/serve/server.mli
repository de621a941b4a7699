(** The multi-tenant solve server.

    One process keeps the [Jit] compile cache and the worker pool warm
    across requests from many tenants.  A connection thread parses and
    admits SUBMITs (quota via [Session], global backpressure via a
    bounded queue answered with BUSY); executor threads drain the queue
    in round-robin tenant order, compile through a coalescing front (two
    identical in-flight compiles share one [Jit] lowering — equality is
    {!Sf_backends.Jit.cache_key_hex}) and run each request under
    {!Sf_resilience.Supervisor.protect}, so one tenant's
    certification failure, injected fault or NaN-poisoned result is an
    ERROR reply to that tenant and nothing else.

    Fault-carrying submissions (capability-gated) arm the {e process
    global} [Fault] clauses, so they run exclusively: an armed request
    waits for in-flight clean solves to drain, and clean solves wait for
    the disarm — isolation by scheduling, pinned by the [@serve] tests.

    Latency and queue depth feed [Sf_trace.Metrics]; STATS renders one
    snapshot of that registry (every counter, the [jit]/[native]/[queue]
    views derived from it, the series) plus per-tenant counters as one
    JSON document. *)

type config = {
  threads : int;  (** executor threads (>= 1) *)
  queue_cap : int;  (** queued-request ceiling before BUSY *)
  quota : Session.quota;  (** applied to tenants on first contact *)
  backend : Sf_backends.Jit.backend;  (** default when a SUBMIT names none *)
  workers : int;  (** default [Config.workers] for solves *)
  max_workers : int;
      (** admission ceiling on [SUBMIT.workers] — the field is a raw
          u32 on the wire, so a hostile tenant can ask for 4-billion
          worker solves; anything above this is [err_parse]-rejected
          before parse, compile or quota charging *)
  max_reps : int;  (** admission ceiling on [SUBMIT.reps], same story *)
  max_program_bytes : int;
  allow_faults : bool;  (** grant [cap_faults] *)
  allow_shutdown : bool;  (** grant [cap_shutdown] *)
}

val default_config : config
(** 2 executor threads, queue of 64, default quota, [openmp] x 1 worker,
    at most 128 workers / 4096 reps per request, 1 MiB programs, faults
    and shutdown allowed. *)

type t

val create : ?config:config -> unit -> t
(** Start the executor threads.  Also registers the serving verdict
    classifiers ([Certification_failed] / [Fault.Injected] /
    [Guard.Tripped] → protocol error codes) on first use, and ignores
    [SIGPIPE] process-wide: a reply racing a client hang-up must be an
    [EPIPE] ({!Protocol.Closed}) that kills one connection, never a
    signal that kills the daemon. *)

val config : t -> config

val serve_pair : t -> Unix.file_descr -> Unix.file_descr -> unit
(** Run one connection inline over an (input, output) descriptor pair —
    blocking until the peer disconnects, a protocol error closes it, or
    SHUTDOWN stops the server.  This is both the stdio transport and the
    in-process test harness (a socketpair).  On disconnect every ticket
    the connection submitted but never claimed is released: unclaimed
    RESULT/ERROR replies are dropped, still-queued jobs are cancelled,
    and a running job's reply is discarded when it completes — a tenant
    that vanishes leaks nothing. *)

val serve_fd : t -> Unix.file_descr -> unit
(** {!serve_pair} over one bidirectional descriptor. *)

val listen_unix : t -> path:string -> unit
(** Bind a Unix-domain socket at [path], accept connections — one
    thread each — until the server is stopped, then clean up the socket
    file and return.  {!stop} (e.g. from a SHUTDOWN request) interrupts
    the accept loop.  A pre-existing [path] is probed first: a {e
    stale} socket (connect refused) is unlinked and taken over; raises
    [Failure] if a server is still listening there or the path is not a
    socket at all, rather than severing it. *)

val parse_capacity : int
(** How many parsed programs a server keeps (64).  A SUBMIT whose exact
    program text is kept skips [Corpus.of_string]; the oldest entry is
    evicted first, and a text that fails to parse is never kept.  Hits
    and misses count as [serve.parse.hits] / [serve.parse.misses]. *)

val parse_cache_entries : t -> int
(** Programs the parse cache holds now (at most {!parse_capacity}). *)

val stats_json : t -> string
(** The STATS document (also what [--stats-json] writes at exit). *)

val stop : t -> unit
(** Stop accepting and executing: running solves finish and deliver,
    every still-queued ticket flips to a terminal
    ["server shutting down"] ERROR (a poll never spins on a ticket no
    executor will run), and the accept loop is interrupted.
    Idempotent. *)

val stopped : t -> bool

val join : t -> unit
(** Wait for the executor threads to exit (call after {!stop}). *)
