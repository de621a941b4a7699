(** Stencil expressions.

    An expression denotes, at every point [x] of a stencil's iteration
    domain, a double-precision value computed from grid reads at affine
    images of [x], named scalar parameters, and arithmetic.  Ordinary
    stencil taps are unit-scale reads [grid[x + o]]; restriction and
    interpolation use non-unit scales [grid[s ⊙ x + o]].  Components (weight
    arrays applied to a grid, the paper's [Component]) are expanded into
    this language by {!Component.to_expr}. *)

open Sf_util

type t =
  | Const of float
  | Param of string  (** scalar bound at kernel-invocation time *)
  | Read of string * Affine.t  (** grid read at [scale ⊙ x + offset] *)
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t

val const : float -> t
val param : string -> t

val read : string -> Ivec.t -> t
(** Unit-scale read at the given offset. *)

val read_affine : string -> Affine.t -> t

(** Infix constructors, for embedding stencil formulas readably. *)

val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
val ( *: ) : t -> t -> t
val ( /: ) : t -> t -> t
val neg : t -> t

val sum : t list -> t
(** [sum []] is [Const 0.]. *)

val rename_grids : (string -> string) -> t -> t
(** Rewrite every grid name (SPMD rank qualification, kernel inlining). *)

val shift : Ivec.t -> t -> t
(** [shift o e] rewrites [e] as evaluated at [x + o]: every read map [m]
    becomes [x ↦ m(x + o)].  This implements the paper's nested-component
    semantics: a weight expression attached to offset [o] is evaluated
    relative to the neighbour at [x + o]. *)

val reads : t -> (string * Affine.t) list
(** All grid reads, deduplicated, in a deterministic order. *)

val grids : t -> string list
(** Names of all grids read, deduplicated, sorted. *)

val params : t -> string list
(** Names of all scalar parameters, deduplicated, sorted. *)

val dims : t -> int option
(** Dimensionality of the read maps, or [None] if the expression reads no
    grid. Raises [Invalid_argument] if reads disagree on rank. *)

val simplify : t -> t
(** Constant folding and algebraic identities (x+0, x*1, x*0, --x).
    Preserves semantics for finite inputs; division is never reordered. *)

val equal : t -> t -> bool
(** Structural identity, constants compared bit for bit: [0.] and [-0.]
    differ, a NaN equals itself.  Equal expressions denote the same
    kernel. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val eval :
  t -> read:(string -> Affine.t -> float) -> params:(string -> float) -> float
(** Reference denotation at one point: [read g m] must return the value of
    grid [g] at [m(x)]. *)
