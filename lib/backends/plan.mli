(** Execution plans: the one representation every backend lowers to.

    A plan is a list of waves separated by barriers.  A wave is an array
    of tasks that may run concurrently; a task is an ordered list of
    [(stencil, tile)] steps run one after another on one domain.  That
    single shape covers every decomposition the micro-compilers choose:

    - a sequential stencil: one task holding all of its rects;
    - a point-parallel tile: one task with one step;
    - a fused tile: one step per cluster member, over the same tile;
    - a time-tile slab column: the skewed sub-step clips, in order.

    The plan that {!execute} runs is the value [Schedule_check.certify]
    proves race-free and whose {!t.cost} annotates the kernel's trace
    span, so what is certified, costed, traced and run cannot drift
    apart. *)

open Sf_util
open Snowflake

type step = Stencil.t * Domain.resolved
type task = step list  (** run in order; tasks of a wave are concurrent *)

type wave = {
  tasks : task array;
  points : int;  (** lattice points over every step *)
  label : string;  (** the wave's stencils, in order, joined by ["+"] *)
}

type t = {
  backend : string;  (** the name the executed kernel reports *)
  group : Group.t;
  shape : Ivec.t;
  waves : wave list;
  description : string;  (** human-readable plan summary *)
  cost : Costing.t;  (** analytic cost of one execution *)
}

val make :
  backend:string ->
  shape:Ivec.t ->
  description:string ->
  cost:Costing.t ->
  Group.t ->
  task list list ->
  t
(** Builds a plan from its waves' tasks, counting points and labels. *)

val members : task -> Stencil.t list
(** The distinct stencils of a task, in first-step order. *)

val task_label : task -> string
(** {!members}' labels joined by ["+"], e.g. ["a"] or ["blur_y+sharpen"]. *)

val parallel_ok : Config.t -> shape:Ivec.t -> Stencil.t -> bool
(** Point-parallel by the analysis, or listed in [Config.force_parallel]. *)

val cluster_tasks :
  Config.t ->
  shape:Ivec.t ->
  split:(Domain.resolved -> Domain.resolved list) ->
  Stencil.t list ->
  task list
(** Decomposes a fusion cluster (members in program order, sharing one
    domain).  A single member that is not {!parallel_ok} becomes one
    sequential task over its rects; otherwise every rect is [split] into
    tiles (interleaved under [Config.multicolor]) and each tile becomes
    one task running every member over it. *)

type tier = Interp | Compiled
(** [Interp] walks the expression AST per point (the oracle);
    [Compiled] instantiates tiles with [Exec.prepare_compiled]. *)

val execute : tier:tier -> Config.t -> t -> Kernel.t
(** The one executor.  Per new (grids, params) binding ([Run_cache]) it
    validates the group's stencils (under [Config.validate]), looks up
    parameters and instantiates every step once.  Each call then runs
    the waves in order.  Every wave is one [Wave] trace span named
    [<group>/wave<i>] with arguments [group], [wave], [stencil] (the
    wave label), [points] and [tasks]; it consults the [wave] fault site
    with that same detail before its body runs.  A wave of one task runs
    on the calling domain; any other wave is farmed to the pool
    ([Pool.run_tasks ~points], at [Config.workers] with
    [Config.serial_cutoff]). *)
