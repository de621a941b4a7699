(** Faultpoint: the fault-injection substrate of [sf_resilience].

    Production stencil systems treat failure as a first-class input; this
    module lets every subsystem misbehave on purpose.  The execution layer
    registers named fault {e sites} at its choke points:

    - ["kernel"] — [Jit]'s per-invocation kernel wrapper (detail:
      ["<backend>:<group>"])
    - ["chunk"] — pool chunk execution (detail: chunk index)
    - ["wave"] — one backend wave / enqueue (detail: ["<group>/wave<i>"])
    - ["halo"] — an [Spmd] exchange sweep (detail: group label)
    - ["mg"] — a multigrid phase (detail: the profile key, e.g.
      ["smooth L0"])
    - ["rank"] — [Spmd] rank death (detail: rank name)

    A {e clause} arms one (site, kind) pair with optional occurrence and
    probability triggers.  Specs come from [SF_FAULTS] (parsed at load
    time), the [--faults] CLI flags, or {!arm} directly.

    {b Zero overhead when disarmed:} every site guards with {!armed} —
    one atomic load and a branch — before touching clause state, the same
    discipline [Sf_trace] uses. *)

type kind =
  | Raise  (** persistent exception at the site (every matching occurrence) *)
  | Transient
      (** exception that heals after the clause's firing budget (default 3)
          — what supervised retry is designed to absorb *)
  | Nan_poison  (** the caller poisons freshly written data with NaN *)
  | Inf_poison
  | Kill_rank  (** [Spmd]: mark the rank dead and poison its meshes *)
  | Delay of float  (** sleep this many seconds (slow-chunk injection) *)
  | Fatal
      (** raise [Assert_failure] at the site: a fault no supervisor may
          absorb, which only a host's outermost boundary can contain *)

val kind_name : kind -> string

exception Injected of { site : string; kind : kind; detail : string }
(** Raised by {!fire} for [Raise]/[Transient] clauses; the supervisor
    treats it like any kernel failure (retry, then failover). *)

type clause = {
  site : string;
  kind : kind;
  prob : float option;  (** [@p=] per-occurrence probability *)
  nth : int option;  (** [@n=] fire exactly on the n-th occurrence *)
  count : int;  (** [@count=] max firings; [-1] = unlimited *)
  matches : string option;  (** [@match=] substring the detail must contain *)
  seed : int;  (** [@seed=] for the probability draw *)
  occ : int Atomic.t;
  fired : int Atomic.t;
}

(** {2 Spec grammar}

    {[
      spec   ::= clause (',' clause)*
      clause ::= site ':' kind ('@' key '=' value)*
      kind   ::= raise | transient | nan | inf | kill | delay=SECONDS | fatal
      key    ::= p | n | count | seed | match     -- count accepts "inf"
    ]}

    Example: [SF_FAULTS="kernel:raise@match=openmp,wave:transient@n=2"]
    persistently fails every OpenMP kernel invocation (exercising backend
    failover) and raises a healing transient at the second wave.  [count]
    defaults: [raise] unlimited, [transient] 3, everything else 1.  The
    probability draw is a pure function of (seed, occurrence) — splitmix64
    — so campaigns replay deterministically. *)

val parse : string -> (clause list, string) result
val to_string : clause list -> string

(** {2 Arming} *)

val armed : unit -> bool
(** One [Atomic.get] — the guard every fault site uses. *)

val arm : clause list -> unit
(** Replace the armed clause set ([[]] disarms). *)

val arm_string : string -> (unit, string) result
val arm_exn : string -> unit
(** Raises [Invalid_argument] on a malformed spec.  Run at module load for
    [SF_FAULTS]. *)

val disarm : unit -> unit

val spec : unit -> string
(** Re-render the armed clause set. *)

(** {2 Triggering} *)

val check : site:string -> detail:string -> kind option
(** Consult the armed clauses for [site]: each matching clause counts one
    occurrence and fires per its triggers and budget.  Firing bumps the
    [fault.injected] counter and, when tracing is on, records a
    zero-duration ["fault:<site>:<kind>"] phase marker.  Returns the
    kind the caller must act on; [None] when nothing fires. *)

val fire : site:string -> detail:string -> kind option
(** {!check}, then: [Raise]/[Transient] raise {!Injected}; [Fatal] raises
    [Assert_failure]; [Delay] sleeps before returning.  Poison/kill kinds are returned for the caller to
    apply — only the site knows which meshes to corrupt. *)

