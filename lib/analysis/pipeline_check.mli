(** Streaming-pipeline certification for SPMD sweeps (SF030–SF034).

    [Spmd] expresses halo exchange as ordinary copy stencils between
    rank-qualified grids (["u@0_0"], ["u@1_0"], …), so a whole distributed
    sweep is one analysable group.  This pass reproduces StencilFlow's
    pre-execution analysis on that substrate: it lifts the group into a
    cross-rank dependence DAG, sizes one bounded FIFO channel per halo
    transfer from the dependence slopes, and proves the
    capacity-constrained graph deadlock-free — all {e before} anything
    runs, so the pipelined executor in [Sf_distributed.Pipeline] only ever
    executes certified plans.

    The model: the group's greedy waves become per-rank {e stages}; a
    (wave, rank, stage) node is one unit of pipelined work.  Every halo
    copy stencil is a channel from the producing rank's latest
    intersecting writer stage (same sweep when one exists, otherwise the
    previous sweep — [wave_delay = 1]) to the consuming stage.  Channel
    depths are computed by the StencilFlow sizing recurrence: ASAP
    longest-path start times over the unrolled DAG, then per channel the
    maximum number of in-flight messages over the schedule.  Deadlock
    freedom is marked-graph liveness: adding the capacity back-edges
    (the [(m+depth)]-th send waits on the [m]-th receive) must keep the
    unrolled graph acyclic; a cycle is reported as an SF031 witness.

    Diagnostics:
    - [SF030] note — the certified pipeline schedule (stages, channels,
      computed depths, buffer bytes)
    - [SF031] error — unsatisfiable channel sizing: the
      capacity-constrained graph has a zero-slack cycle (witness printed)
    - [SF032] error — non-pipelineable group: cross-rank reduction,
      non-neighbour or non-unit-scale transfer, a cross-rank read buried
      inside arithmetic, or a backward dependence along the stream axis
    - [SF033] warning — certified depths exceed the channel-memory
      budget; the bulk-synchronous fallback ([Spmd.run_group]) is named
    - [SF034] error — certification failure at execution time: the plan
      an executor is about to run disagrees with the certified depths
      (emitted by {!verify_depths}, raised by the executor's gate) *)

open Sf_util
open Snowflake

type channel = {
  base : string;  (** grid base name, e.g. ["u"] *)
  src : int list;  (** producer rank coordinate *)
  dst : int list;  (** consumer rank coordinate *)
  axis : int;  (** the axis on which [src] and [dst] are neighbours *)
  src_grid : string;  (** rank-qualified grid the plane is read from *)
  dst_grid : string;  (** rank-qualified grid the ghost plane lands in *)
  src_stage : int;  (** stage whose completion publishes the plane *)
  dst_stage : int;  (** stage whose start consumes it *)
  wave_delay : int;  (** 0 = produced in the same sweep, 1 = previous *)
  consumer : int;  (** index of the halo copy stencil within the group *)
  producer : int;  (** index of the producing stencil within the group *)
  ghost : Domain.resolved list;
      (** consumer-grid ghost lattice the copy writes (one message) *)
  offset : Ivec.t;  (** ghost cell + [offset] = producer-grid cell *)
  slope : int * int;
      (** (scale, offset) of the transfer along [axis] — the dependence
          slope the sizing recurrence consumed *)
  depth : int;  (** certified ring depth, in messages (planes) *)
  plane_points : int;  (** lattice points per message *)
}

type certificate = {
  group_label : string;
  stream_axis : int;
  stages : int;  (** number of greedy waves *)
  ranks : int list list;  (** every rank with at least one stencil *)
  stage_of : int array;  (** stencil index → stage *)
  rank_of : int list array;  (** stencil index → home rank *)
  channels : channel list;
  bytes : int;  (** total certified buffer bytes (8 per point) *)
}

val rank_of_grid : string -> (string * int list) option
(** Parse a rank-qualified grid name: ["u@1_0"] ↦ [Some ("u", [1; 0])];
    [None] for unqualified names. *)

val analyze :
  ?stream_axis:int ->
  ?depth_override:int ->
  ?budget_bytes:int ->
  shape:Ivec.t ->
  Group.t ->
  certificate option * Diagnostics.t list
(** The whole analysis.  Returns [Some certificate] iff the group is
    pipelineable and the (possibly overridden) channel sizing is
    deadlock-free; the diagnostics always tell the full story (an SF030
    note accompanies every certificate; SF031/SF032 errors explain every
    refusal; SF033 warns on budget overrun without withholding the
    certificate).  [depth_override] forces every channel to the given
    depth before the deadlock proof — the expert/fuzzing knob that makes
    undersized plans reproducible.  [budget_bytes] defaults to
    [SF_PIPE_BUDGET] (bytes) from the environment, else 64 MiB.
    A group with no rank-qualified grids yields [(None, [])]. *)

val verify_depths : certificate -> depths:int list -> Diagnostics.t list
(** The SF034 runtime gate: compare the depths an executor is about to
    run with (in [certificate.channels] order) against the certified
    ones; every disagreement (including a length mismatch) is an SF034
    error.  Empty iff the executed plan agrees with the certificate. *)

val describe : certificate -> string
(** One line: stages × ranks, channel count, depth range, buffer bytes. *)
