(** Tiling of resolved iteration lattices (paper §IV.A).

    Tiling is an arbitrary-dimension blocking of the lattice *points* (tile
    sizes count lattice points, not raw coordinates, so strided domains tile
    uniformly).  The OpenMP backend uses {!split} / {!split_outer} to create
    subtasks; the OpenCL backend uses {!tall_skinny}. *)

open Snowflake

val split : tile:int list -> Domain.resolved -> Domain.resolved list
(** Block every axis with the given tile sizes (points per tile; must be
    positive; a size larger than the axis yields one tile).  Tiles are
    returned in row-major order of their origin and partition the input
    exactly.  Rank mismatch raises [Invalid_argument].  An empty lattice
    yields []. *)

val split_axis :
  axis:int -> tile:int -> Domain.resolved -> Domain.resolved list
(** Block only one axis. *)

val split_outer : chunks:int -> Domain.resolved -> Domain.resolved list
(** Split the outermost non-degenerate axis into at most [chunks]
    near-equal pieces — the OpenMP backend's subtask decomposition. *)

val tall_skinny :
  tile:int * int -> Domain.resolved -> Domain.resolved list
(** The OpenCL backend's blocking: 2-D tiles of the *innermost two* axes,
    each tile spanning the full extent of every remaining (outer) axis —
    the work-group then "rolls upward" through those.  In 1-D, tiles only
    the single axis with the second component. *)

val clip_axis :
  axis:int -> lo:int -> hi:int -> Domain.resolved -> Domain.resolved option
(** Intersect the lattice with the coordinate window [[lo, hi)] on [axis],
    preserving the stride congruence class (the clipped lattice starts at
    the first original lattice point [>= lo]).  [None] when the
    intersection is empty.  Clips over consecutive windows partition the
    lattice exactly — the invariant the skewed time-tile slabs of
    [Timetile] are built on. *)
