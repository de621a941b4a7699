(** Plan conflict checking and schedule certification.

    A {!Plan.t} is a list of waves, each wave a set of tasks executed
    concurrently; a task runs its [(stencil, tile)] steps in order.
    {!wave_conflicts} verifies the fundamental safety property the
    Diophantine analysis is supposed to guarantee — no two concurrent
    tasks touch the same cell with at least one write — by exact lattice
    intersection over the {e actual tiles} of the plan, and reports
    {e every} conflicting pair, not just the first.  Pairs are pruned by
    bucketing tasks on grid name: a conflict always involves somebody's
    written grid, so only writer x writer and writer x reader pairs of
    the same grid are intersected.

    {!certify} wraps the checker as an [sflint] pass ([SF021]-[SF023])
    over the very plan a backend executes, and is what [Jit.compile]
    runs under [SF_VALIDATE=1] / [Config.certify]. *)

open Snowflake

type conflict = {
  first : int;  (** task index within the wave, [first < second] *)
  second : int;
  first_label : string;  (** {!Plan.task_label} of the task *)
  second_label : string;
  grid : string;  (** the grid on which the tasks collide *)
  kind : string;  (** ["write/write"], ["write/read"] or ["read/write"] *)
}

val wave_conflicts : Plan.task array -> conflict list
(** All conflicting pairs of the wave, deduplicated and sorted by task
    indices; empty iff the wave is race-free. *)

val conflict_to_string : conflict -> string

val certify : Config.t -> Plan.t -> Sf_analysis.Diagnostics.t list
(** Report each intra-wave conflict of the plan once: as an [SF023]
    error when either task runs more than one stencil (a fused cluster),
    otherwise as an [SF021] error located at the first task's stencil.
    Also an [SF022] warning for each [Config.force_parallel] label that
    overrides the analysis.  An empty (or error-free) result certifies
    the plan race-free. *)

val certify_timetile :
  Config.t ->
  shape:Sf_util.Ivec.t ->
  Group.t ->
  Sf_analysis.Diagnostics.t list
(** One [SF025] error per property that forbids time-tiling the group
    ({!Timetile.illegalities}); empty iff [Timetile.legal]. *)

val certify_timetile_plan :
  Config.t ->
  shape:Sf_util.Ivec.t ->
  Timetile.plan ->
  Sf_analysis.Diagnostics.t list
(** {!certify_timetile} plus an [SF024] error when the plan's skew is
    below {!Timetile.required_skew} — the mis-skewed plan the fuzzer
    injects is rejected here before any backend sees it. *)
