(** Temporal blocking: fold [k] consecutive applications of a group into
    one skewed, slab-blocked sweep costing ~one pass of memory traffic.

    The [k] applications are flattened into [k * Group.length] sub-steps;
    the outermost axis is blocked into slabs of [block] lattice points,
    and sub-step [q]'s slab window is shifted down by [q * skew] — the
    classical skewed (trapezoidal) time tile, with the skew taken from
    the dependence slope (max |axis-0 offset| of any unit-scale read of a
    group-written grid).  Slab columns run sequentially, so results are
    {e bitwise identical} to [k] plain applications at any worker count.

    Legality ([legal]): every stencil writes through an identity
    [out_map], is point-parallel, and reads group-written grids only at
    unit scale.  [plan] returns [None] otherwise, and
    [Schedule_check.certify_timetile] / [certify_timetile_plan] turn
    violations (and under-skewed plans) into stable [SF024]/[SF025]
    diagnostics so an uncertified plan never reaches a backend. *)

open Sf_util
open Snowflake

type plan = {
  group : Group.t;
  reps : int;  (** applications folded into the sweep (k >= 2) *)
  block : int;  (** axis-0 slab size, lattice points *)
  skew : int;  (** per-sub-step window shift *)
}

val required_skew : Group.t -> int
(** Max |axis-0 offset| over unit-scale reads of group-written grids —
    the smallest legal skew. *)

val illegalities : shape:Ivec.t -> Group.t -> (string * string) list
(** [(stencil label, reason)] for every property that forbids time-tiling
    the group; empty iff {!legal}. *)

val legal : shape:Ivec.t -> Group.t -> bool

val plan :
  ?skew:int ->
  ?block:int ->
  Config.t ->
  shape:Ivec.t ->
  reps:int ->
  Group.t ->
  plan option
(** [None] when [reps < 2] or the group is not {!legal}.  [skew] defaults
    to {!required_skew} (overriding it below that is how the fuzzer's
    mis-skew injection builds a provably wrong plan for the certifier and
    the differential oracle to catch); [block] defaults to
    [Config.time_block], or an automatic size when that is 0. *)

val nsubsteps : plan -> int
val nblocks : plan -> shape:Ivec.t -> int

val describe : plan -> string
(** E.g. ["time depth 4 (block 8, skew 1)"] — the [--profile] plan
    line. *)

val lower : shape:Ivec.t -> plan -> Plan.t
(** The sequential skewed-slab plan: one wave per slab column, each a
    single task running the column's sub-step clips in order.  One
    execution performs [plan.reps] applications of the group. *)
