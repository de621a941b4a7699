(** Stencil groups: a sequence of stencils executed consecutively.

    The group is the unit over which Snowflake performs cross-stencil
    dependence analysis and barrier placement, and the unit the JIT compiles
    into one callable (paper Table I, §IV). *)

type t = private { label : string; stencils : Stencil.t list }

val make : ?label:string -> Stencil.t list -> t
(** Raises [Invalid_argument] on an empty list or mixed-rank stencils. *)

val stencils : t -> Stencil.t list
val length : t -> int
val dims : t -> int

val append : t -> t -> t
(** Sequential composition. *)

val grids : t -> string list
(** All grids touched by any member stencil, sorted, deduplicated. *)

val outputs : t -> string list
(** The grids some member stencil writes, sorted, deduplicated. *)

val params : t -> string list

val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
