(** Cross-wave sweep fusion: partition a group into clusters of provably
    cofusible stencils, executed as per-tile multi-stencil tasks.

    The wave scheduler barriers between dependent stencils, so a chain of
    pointwise stencils streams its grids once per stencil.  A fused
    cluster runs every member in program order {e per tile}, making a
    single pass over the cluster's grids; [Costing.of_fused] credits the
    saved traffic and [Schedule_check] re-proves the plan race-free
    ([SF023]) before [Jit.compile] adopts it.

    A multi-member cluster is legal when members share one domain, write
    through identity out_maps, are individually point-parallel, and read
    any cluster-written grid only through the identity map.  Then each
    tile's writes — and its reads of cluster-written grids — are exactly
    the tile's own lattice points, so concurrent tile tasks are disjoint
    and per-tile member order reproduces sequential semantics
    cell-for-cell.  GSRB's colour sweeps are (correctly) never fused;
    pointwise pipeline tails are. *)

open Sf_util
open Snowflake

type cluster = { members : Stencil.t list }  (** program order *)

val partition : Config.t -> shape:Ivec.t -> Group.t -> cluster list
(** Greedy left-to-right clustering; concatenating the clusters' members
    yields the group's stencils in order.  With [Config.fusion] off (or
    nothing cofusible) every cluster is a singleton. *)

val cofusible : Config.t -> shape:Ivec.t -> Stencil.t list -> Stencil.t -> bool
(** [cofusible cfg ~shape members s]: may [s] join a cluster currently
    holding [members] (program order)?  Always true for [members = []]. *)

val waves : shape:Ivec.t -> cluster list -> int list list
(** Greedy barrier placement over clusters (cluster indices), mirroring
    [Schedule.greedy_waves] at cluster granularity. *)

val fused_count : cluster list -> int
(** Number of clusters with more than one member. *)

val describe : cluster list -> string
(** E.g. ["[blur_x][blur_y+sharpen]"] — the fusion-partition summary the
    [--profile] plan report prints. *)
