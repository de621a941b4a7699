(** Whole-group optimisation passes run by the JIT before lowering
    (paper §III: "this technique ... can also be used for eliminating dead
    stencils and reordering computations"; §VII schedules fusion as future
    work — implemented here).

    Both passes are driven entirely by the Diophantine dependence analysis
    and are semantics-preserving for the grids a caller observes. *)

open Sf_util
open Snowflake

val fuse_pass :
  shape:Ivec.t -> live:string list option -> Group.t -> Group.t
(** Greedily fuse adjacent producer/consumer pairs when
    {!Sf_analysis.Schedule.can_fuse} holds and dropping the producer's
    write is unobservable: its output grid is never read by a later
    stencil and either equals the consumer's output or is known dead
    ([live] given and not containing it).  With [live = None] only
    same-output fusion is performed. *)

val optimize : Config.t -> shape:Ivec.t -> Group.t -> Group.t
(** DCE (when configured) followed by {!fuse_pass} (under
    [Config.inline_producers]). *)
