(** Printing execution plans as C — shared by every source emitter.

    An emitter does not schedule: {!prepare} takes the [Plan.t] that
    [Jit.lower] returns, the very value [Jit.compile] certifies and runs,
    and the printers here walk its waves → tasks → [(stencil, tile)] steps.
    Lowering is done against concrete grid shapes (the JIT situation in the
    paper: shapes are known when [compile] runs), so strides appear as
    integer literals and the affine index arithmetic constant-folds. *)

open Sf_util
open Snowflake
open Sf_backends

val sanitize : string -> string
(** Grid/parameter name → C identifier ({!prepare} rejects collisions). *)

val loop_var : int -> string
(** ["i0"], ["i1"], ... *)

val point : int -> C_ast.expr array
(** The loop counters of an [n]-dimensional point. *)

val flat_index :
  strides:Ivec.t -> Affine.t -> C_ast.expr array -> C_ast.expr
(** Flat offset of [map(point)] in a row-major array with the given strides,
    where [point] is given per-axis as C expressions. *)

val expr_to_c :
  grid_strides:(string -> Ivec.t) -> point:C_ast.expr array -> Expr.t ->
  C_ast.expr
(** The stencil expression at a symbolic point; [Param p] becomes
    [Var (sanitize p)]. *)

val write :
  grid_strides:(string -> Ivec.t) -> point:C_ast.expr array -> Stencil.t ->
  C_ast.stmt
(** The stencil's assignment at a symbolic point. *)

val rect_loops :
  grid_strides:(string -> Ivec.t) ->
  Stencil.t ->
  Domain.resolved ->
  C_ast.stmt list
(** The full loop nest executing one resolved rect of the stencil. *)

val task_loops :
  grid_strides:(string -> Ivec.t) -> Plan.task -> C_ast.stmt list
(** One loop nest per step of the task, in the task's order. *)

val func_params :
  ?space:string -> ?restrict:string -> Group.t -> C_ast.param list
(** [double * restrict] for written grids, [const double * restrict] for
    read-only ones (each prefixed by [space], e.g. ["__global "]), then
    [const double] scalars. *)

type emitter =
  ?config:Config.t ->
  shape:Ivec.t ->
  grid_shapes:(string -> Ivec.t) ->
  Group.t ->
  string
(** Every emitter's signature: [shape] is the iteration-space shape,
    [grid_shapes] each grid's allocated shape (for stride literals). *)

type t = { config : Config.t; plan : Plan.t; strides : string -> Ivec.t }
(** A plan ready to print, with each grid's row-major strides. *)

val prepare :
  ?config:Config.t ->
  ?reserved:(string * string) list ->
  Jit.backend ->
  shape:Ivec.t ->
  grid_shapes:(string -> Ivec.t) ->
  Group.t ->
  t
(** [Jit.lower] the group, then check its names: raises
    [Invalid_argument] naming both sides when two grids or parameters
    sanitise to one identifier, or when one sanitises to a loop counter or
    to an identifier of [reserved] (description, identifier) pairs. *)

val sequential : t -> Plan.task -> bool
(** Some member of the task is not [Plan.parallel_ok]. *)

val banner : t -> compiler:string -> string list
(** The leading comment: compiler, group, shape and the plan's
    description (which names the worker count of a parallel plan). *)

val host_func : t -> C_ast.stmt list -> C_ast.func
(** The host C function of the plan's group, with the given body. *)
