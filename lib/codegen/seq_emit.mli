(** Plain sequential C99 emission — the paper's "sequential C"
    micro-compiler.  Prints the [Compiled] plan: stencils in program
    order, rects in union order; no pragmas, no tiling: the reference
    translation a user can read top-to-bottom. *)

open Sf_util
open Snowflake

val emit :
  shape:Ivec.t -> grid_shapes:(string -> Ivec.t) -> Group.t -> string
