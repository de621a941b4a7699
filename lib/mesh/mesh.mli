(** N-dimensional dense meshes of double-precision values.

    A mesh is a row-major flat [floatarray] plus a shape.  Meshes are the
    runtime data that Snowflake stencils read and write; ghost zones are not
    a separate concept — callers allocate the halo as part of the shape and
    use domains to address interior vs. boundary, exactly as the paper's
    language does. *)

open Sf_util

type t

val check_shape : Ivec.t -> (unit, string) result
(** [Ok ()] when [create] accepts [shape]: rank at least 1 and every
    extent positive. *)

val create : Ivec.t -> t
(** [create shape] is a zero-initialised mesh. Raises [Invalid_argument]
    when [check_shape] refuses [shape]. *)

val create_init : Ivec.t -> (Ivec.t -> float) -> t
(** [create_init shape f] fills each point [p] with [f p]. *)

val fill_with : t -> (Ivec.t -> float) -> unit
val fill : t -> float -> unit

val random : ?seed:int -> ?lo:float -> ?hi:float -> Ivec.t -> t
(** Deterministic pseudo-random mesh (default seed 42, range [[-1, 1]]). *)

val shape : t -> Ivec.t
val dims : t -> int
val size : t -> int
(** Total number of points. *)

val strides : t -> Ivec.t
(** Row-major strides: flat index of point [p] is [Ivec.dot (strides m) p]. *)

val flat_index : t -> Ivec.t -> int
val in_bounds : t -> Ivec.t -> bool

val get : t -> Ivec.t -> float
(** Bounds-checked point read; raises [Invalid_argument] out of bounds. *)

val set : t -> Ivec.t -> float -> unit

val get_flat : t -> int -> float
val set_flat : t -> int -> float -> unit

val unsafe_get_flat : t -> int -> float
val unsafe_set_flat : t -> int -> float -> unit

val data : t -> floatarray
(** The underlying storage (shared, not a copy). *)

val copy : t -> t
val blit : src:t -> dst:t -> unit
(** Raises [Invalid_argument] on shape mismatch. *)

val iteri : t -> (Ivec.t -> float -> unit) -> unit
(** Iterate every point in row-major order. *)

val map_inplace : t -> (float -> float) -> unit

(** {2 Reductions} *)

val dot : t -> t -> float
val norm_l2 : t -> float
val norm_linf : t -> float
val sum : t -> float
val mean : t -> float

val max_abs_diff : t -> t -> float
(** L∞ distance between two same-shape meshes. *)

val equal_approx : ?tol:float -> t -> t -> bool
(** Pointwise comparison with absolute tolerance (default 1e-12). *)

val close : ?ulps:int -> ?atol:float -> t -> t -> bool
(** Pointwise {!Sf_util.Fcmp.close}: same shape and every point within
    [ulps] units in the last place or [atol] absolutely.  With the
    defaults ([ulps = 0], [atol = 0.]) this is bitwise equality modulo
    NaN — the determinism check the pool regression tests use. *)

val first_mismatch :
  ?ulps:int -> ?atol:float -> t -> t -> (Ivec.t * float * float) option
(** Witness point (row-major first) where {!close} fails, with both
    values — what the differential fuzzer reports on divergence. *)

val axpy : alpha:float -> x:t -> y:t -> unit
(** [y <- alpha*x + y], shapes must match. *)

val scale_inplace : t -> float -> unit

val pp : Format.formatter -> t -> unit
(** Shape plus a small sample of values; intended for debugging. *)
