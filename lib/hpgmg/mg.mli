(** The geometric multigrid solver, assembled entirely from Snowflake
    stencil groups — the paper's Python/Snowflake HPGMG port (§V).

    Every operator application is a JIT-compiled kernel: GSRB smooths,
    residuals, piecewise-constant restriction, interpolation-and-correct,
    and the interleaved Dirichlet boundary stencils.  The backend (and its
    tuning options) is chosen per solver instance, so the same solver object
    demonstrates single-source portability across micro-compilers. *)

open Sf_backends

type interp_kind = Constant | Linear

(** Smoother selection, each derived by {!Nd} at the solver's rank.
    [Gsrb] is the paper's benchmark configuration; [Gsrb4] uses the
    four-colour ordering of Fig. 3b.  [Gsrb], [Gsrb4] and [Jacobi] relax
    the variable-coefficient operator, whose residual the solver reduces.
    [Chebyshev] relaxes the constant-coefficient operator: its step sizes
    come from λmax = 4·dims/h², which is not a bound for a β-weighted
    operator, hence: use it with β ≡ 1. *)
type smoother = Gsrb | Gsrb4 | Jacobi | Chebyshev of int

type config = {
  backend : Jit.backend;
  jit : Config.t;
  smoother : smoother;
  smooths : int;  (** smoother applications pre- and post- (paper uses 2) *)
  coarsest_n : int;  (** stop coarsening at this interior size *)
  coarse_iters : int;  (** smoother applications used as the bottom solve *)
  interp : interp_kind;
}

val default_config : config
(** compiled backend, GSRB smoother, 2 smooths, coarsest 2³, 24 bottom
    smooths, piecewise-constant interpolation. *)

(** The stencil groups a solver runs, built once by {!create} at its
    rank and reused on every level (each resolves against the level's
    shape when compiled). *)
type groups = {
  smoother : Snowflake.Group.t;  (** one application of [config.smoother] *)
  residual : Snowflake.Group.t;  (** boundaries, then res ← f − A u *)
  dinv : Snowflake.Group.t;  (** inverse diagonal from the betas *)
  restrict : Snowflake.Group.t;  (** ["fine_res"] → ["coarse_f"] *)
  interp : Snowflake.Group.t;  (** ["coarse_u"] corrects ["fine_u"] *)
}

type ops  (** one level's operators, bound to its meshes *)

type t = private {
  levels : Level.t array;
  config : config;
  groups : groups;
  timers : (string, float ref) Hashtbl.t;
      (** per-operation, per-level wall time, keyed e.g. ["smooth L0"] *)
  mutable active_backend : Jit.backend;
      (** the backend the bound kernels were compiled for — starts at
          [config.backend], demoted down [Supervise.chain] by
          {!solve_resilient} when a backend keeps failing *)
  mutable ops : ops array;  (** bound by {!create} and {!demote_backend} *)
}

val create : ?config:config -> ?dims:int -> n:int -> unit -> t
(** Builds the hierarchy n, n/2, …, [coarsest_n] of rank-[dims] levels
    (default 3) and the solver's {!groups} at that rank, from {!Nd}'s
    constructors, then compiles and binds every level's operators, so
    the cycles never probe the Jit cache.  [n] must be [coarsest_n]·2^k.
    Betas default to 1; call {!set_beta} (3-D) or {!Level.set_beta_nd} on
    each of [levels] then {!init_dinv} to change them.  Every smoother
    and interpolation works at every rank.  Raises [Invalid_argument]
    for [dims < 1] and for an [n] of the wrong form. *)

val finest : t -> Level.t

val set_beta : t -> (float -> float -> float -> float) -> unit
(** Evaluate β at every level's face centres (re-discretisation, equivalent
    to HPGMG's coefficient restriction for smooth β) and refresh [dinv].
    3-D solvers only. *)

val init_dinv : t -> unit
(** Recompute the inverse-diagonal mesh on every level (run automatically
    by {!create} and {!set_beta}). *)

val smooth : t -> int -> unit
(** One smoother application (e.g. boundaries/red/boundaries/black for
    GSRB) on level [i]. *)

val smooth_steps : t -> int -> count:int -> unit
(** [count] consecutive smoother applications on level [i], temporally
    blocked when [config.jit.time_tile > 1] and the smoother group is
    [Timetile]-legal: count/k applications run as time-tiled kernels of
    depth k (bitwise identical to plain smooths, ~one memory pass per k
    sweeps), the remainder — and any untileable smoother — as plain
    smooths.  The V-cycle's pre/post-smooth loops and the bottom solve go
    through this. *)

val smoother_plan : t -> string
(** The kernels one pre- or post-smooth ([config.smooths] applications)
    runs on the finest level, as [times x [Kernel.description]] joined by
    ["then"]: the plain kernel, or the time-tiled one plus any plain
    remainder — what [hpgmg_run --profile] prints.  Compiles and runs
    nothing. *)

val compute_residual : t -> int -> unit
(** res ← f − A u on level [i] (boundaries applied first). *)

val vcycle : t -> unit
(** One V(smooths, smooths)-cycle starting at the finest level. *)

val fcycle : t -> unit
(** One full-multigrid F-cycle: restrict the right-hand side to every
    level, solve coarsest, prolong + V-cycle upward (paper §V configures
    HPGMG's default F-cycle; provided for completeness). *)

val residual_norm : t -> float
(** ‖f − A u‖₂ over the finest interior (recomputes the residual). *)

val solve : ?cycles:int -> t -> float array
(** Run V-cycles (default 10, as in the paper's benchmark configuration)
    and return the residual norms: element 0 is the initial norm, element i
    the norm after cycle i. *)

val active_backend : t -> Jit.backend

val demote_backend : t -> bool
(** Demote the active backend one step down [Supervise.chain] and rebind
    every level's operators against it (one compile per kernel); [false]
    when already at the end of the chain.  Counted as [mg.demotions]
    (never as [supervisor.failovers]) whether or not tracing is on, and
    marked by a ["failover:mg"] span when it is. *)

val solve_resilient :
  ?cycles:int ->
  ?checkpoint_every:int ->
  ?ring:int ->
  ?divergence_factor:float ->
  ?max_rollbacks:int ->
  t ->
  float array
(** {!solve} under supervision: after every good cycle (finite residual,
    not blown up past [divergence_factor] (default 10) x the last accepted
    norm) the finest-level solution is checkpointed into a
    copy-on-checkpoint ring of [ring] (default 3) reusable buffers, every
    [checkpoint_every] (default 1) cycles.  A bad cycle — divergence, a
    guard trip, or an exception the per-kernel supervisor could not absorb
    — rolls back to the newest checkpoint, demotes the active backend one
    step down the failover chain and re-runs the same cycle, up to
    [max_rollbacks] (default 8) times in total before the failure is
    re-raised.  The finest solution mesh is the {e entire} rollback state:
    a V-cycle recomputes all coarser state and never writes the finest f
    or dinv.  With no faults armed and guards off this is {!solve} plus
    one mesh copy per checkpoint.  Every rollback and backend demotion is
    counted ([checkpoint.rollbacks], [mg.demotions]) and, when tracing is
    on, marked (["rollback:mg"] / ["failover:mg"]). *)

val dof : t -> int
(** Unknowns on the finest level. *)

val timed : t -> string -> (unit -> unit) -> unit
(** [timed t key f] runs [f] and adds its wall time to [t]'s profile under
    [key].  Exception-safe: if [f] raises, the elapsed time is still booked
    before the exception propagates.  With tracing on
    ({!Sf_trace.Trace.on}), each sample is also recorded as a [phase]
    span. *)

val profile : t -> (string * float) list
(** Accumulated wall time per (operation, level), sorted descending —
    HPGMG's characteristic timing breakdown.  Keys: ["smooth L<i>"],
    ["residual L<i>"], ["restrict L<i>->L<i+1>"], ["interp L<i+1>->L<i>"],
    ["bottom L<i>"]. *)

val reset_profile : t -> unit
