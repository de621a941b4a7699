(** The JIT front door: backend selection plus the compile cache.

    [compile] lowers a stencil group for a concrete iteration shape with the
    chosen micro-compiler and memoises the result — the paper's "call-ables
    are cached, for subsequent use".  The cache key is structural (group
    hash × shape × backend × options), so rebuilding an equal group from
    scratch still hits.

    Compilation is thread-safe: the cache, the custom-backend registry and
    the hit/miss counters may be used from any domain (e.g. a pool task
    JIT-compiling a sub-kernel).  Two domains racing to compile the same
    key may both lower it, but exactly one kernel is retained and returned
    to both. *)

open Sf_util
open Snowflake

type backend = Interp | Compiled | Openmp | Opencl | Custom of string
(** [Custom name] selects a user-registered micro-compiler — the paper's
    hybrid model (Fig. 1c): the framework ships four backends and "allows
    new backends to be added by users" through {!register_backend}. *)

exception
  Certification_failed of {
    backend : string;
    group : string;
    diagnostics : Sf_analysis.Diagnostics.t list;
  }
(** Raised by {!compile} instead of returning a kernel when
    [Config.certify] is set (e.g. via [SF_VALIDATE=1]) and
    [Schedule_check.certify] finds a race ([SF021]/[SF023]) in the plan
    the chosen backend is about to execute.  Certification runs once per
    cache entry — hot loops replaying a cached kernel pay nothing.
    Custom backends (whose plans the checker cannot see) are never
    certified. *)

val backend_name : backend -> string

val backend_of_string : string -> backend option
(** Resolves built-ins first, then registered custom backends. *)

val all_backends : backend list
(** The built-ins only. *)

val register_backend :
  name:string ->
  (Config.t -> shape:Ivec.t -> Group.t -> Kernel.t) ->
  unit
(** Install a custom micro-compiler under [name].  The function receives
    exactly what the built-in backends receive (options, the iteration
    shape and the analysed group) and must return a kernel; compiled
    results are cached like any other backend.  Re-registering a name
    replaces the previous compiler (and clears the cache, since cached
    kernels may stem from the old one).  Raises [Invalid_argument] if
    [name] collides with a built-in. *)

val registered_backends : unit -> string list

val lower :
  ?config:Config.t -> backend -> shape:Ivec.t -> Group.t -> Plan.t
(** The plan a built-in backend executes for the group as given
    ({!compile} first runs [Passes.optimize]).  With [Config.fusion] on,
    the OpenMP/OpenCL plans are the fused ones and cost the single-pass
    [Costing.of_clusters] bytes.  Raises [Invalid_argument] for a
    [Custom] backend. *)

val compile :
  ?config:Config.t -> backend -> shape:Ivec.t -> Group.t -> Kernel.t
(** Always ONE application of the group per kernel invocation
    ([Config.time_tile] only distinguishes cache entries here; the
    temporal depth is consumed by {!compile_time_tiled}).  A built-in
    backend's group is lowered once to a {!Plan.t}; that same value is
    certified (under [Config.certify]), annotates the kernel span with
    its cost, and is run by [Plan.execute]. *)

val compile_time_tiled :
  ?config:Config.t -> reps:int -> backend -> shape:Ivec.t -> Group.t ->
  Kernel.t
(** A kernel whose single invocation performs [reps] consecutive
    applications of the group.  When [Timetile.plan] accepts the group the
    applications are skew-blocked into ~one pass of memory traffic
    (bitwise identical results to [reps] plain invocations, at any worker
    count); otherwise the plain kernel is wrapped in a reps-loop, so the
    observable semantics are uniform either way.  Under [Config.certify] a
    time-tile plan is first vetted by
    [Schedule_check.certify_timetile_plan] (and its {!Plan.t} by
    [Schedule_check.certify]) and an under-skewed or illegal
    plan raises {!Certification_failed} with [SF024]/[SF025] diagnostics.
    Cached under a distinct pseudo-backend, keyed by [reps] via
    [Config.time_tile].  [reps = 1] is exactly {!compile}. *)

val compile_stencil :
  ?config:Config.t -> backend -> shape:Ivec.t -> Stencil.t -> Kernel.t
(** Wraps the stencil in a singleton group. *)

val cache_key_hex : ?config:Config.t -> ?reps:int -> backend ->
  shape:Sf_util.Ivec.t -> Group.t -> string
(** The structural cache identity {!compile} (or, with [reps > 1],
    {!compile_time_tiled}) would use, as a stable hex token.  Equal tokens
    mean the two compiles share one cache entry — what a serving layer
    needs to coalesce concurrent identical compiles into a single lowering
    instead of letting them race inside {!compile}. *)

val cache_stats : unit -> int * int
(** (hits, misses) since start or last {!clear_cache}. *)

val clear_cache : unit -> unit
