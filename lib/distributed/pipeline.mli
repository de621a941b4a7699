(** Pipelined SPMD execution over certified bounded channels.

    [Spmd.run_group] is bulk-synchronous: every wave of a sweep ends in a
    global barrier, so rank R's wave N+1 cannot start until every rank has
    finished wave N.  This executor replaces the whole-halo barrier with
    per-plane channel sends à la StencilFlow: each cross-rank halo copy
    becomes a bounded ring buffer sized by the
    {!Sf_analysis.Pipeline_check} certifier, compute is split into
    per-(rank, stage) kernels, and a greedy scheduler runs every rank
    whose next stage has both its input planes and its output ring space
    available — so neighbouring ranks overlap by up to a full sweep.

    The certifier gates execution exactly the way [Schedule_check.certify]
    gates [Jit.compile]: {!create} refuses to build an executor for any
    group the analysis does not certify (raising
    [Sf_backends.Jit.Certification_failed] with the SF031/SF032
    diagnostics), and {!run} re-verifies the ring depths it is about to
    use against the certificate ({!Sf_analysis.Pipeline_check.verify_depths}),
    raising with SF034 diagnostics on any disagreement — which is how the
    [--inject undersize-channel] fault is caught.

    Results are bitwise identical to the bulk-synchronous path at any
    worker count: per-stencil kernels evaluate the same expressions over
    the same data, ring slots are captured exactly when the producing
    stage completes, and concurrent tasks touch disjoint meshes/slots. *)

open Sf_analysis

type t

val certify :
  ?stream_axis:int ->
  ?depth_override:int ->
  Spmd.t ->
  Snowflake.Group.t ->
  Pipeline_check.certificate option * Diagnostics.t list
(** Run the static analysis for this Spmd instance's shape and the
    default channel-memory budget of [Pipeline_check.analyze] without
    building anything.  [depth_override] forces every channel depth (the knob that
    makes SF031 deadlock witnesses reproducible: [~depth_override:0]). *)

val create :
  ?stream_axis:int ->
  ?depth_override:int ->
  ?config:Sf_backends.Config.t ->
  Spmd.t ->
  Snowflake.Group.t ->
  t
(** Certify the group and build the pipelined executor: ring buffers at
    the certified depths, per-(rank, stage) kernels with channel-consumer
    halo stencils removed, each bound once to the Spmd grids.  Raises
    [Sf_backends.Jit.Certification_failed] (backend ["pipeline"]) when
    certification fails — a plan lacking a certificate never runs. *)

val certificate : t -> Pipeline_check.certificate

val run : ?sweeps:int -> t -> unit
(** Execute [sweeps] (default 1) pipelined applications of the group.
    First re-verifies the actual ring depths against the certificate and
    raises [Sf_backends.Jit.Certification_failed] with SF034 diagnostics
    on any disagreement; then primes the delay>0 channels from the current
    grid state and drives the greedy scheduler to completion.  Channel
    traffic is visible as the [pipeline.sends]/[pipeline.stalls] counters
    and a ["pipeline:<label>"] span when tracing is on. *)

val inject_undersize : t -> unit
(** Shrink the first channel's ring by one slot {e without} updating the
    certificate — the [undersize-channel] fault.  The next {!run} must
    refuse to execute (SF034), so the shrunken ring is never actually
    used.  Raises [Invalid_argument] if the plan has no channels. *)
