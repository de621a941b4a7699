(** Rect executors: the innermost machinery shared by all backends.

    A backend lowers a stencil group to a schedule of (stencil, lattice
    tile) tasks.  {!form} and {!geometry} do the compilation work for one
    stencil and tile at one specialisation — the stencil's expression
    resolved to a {!Native_emit.expr} whose leaves are loads and
    coefficient indices, tile geometry — so running the (many) tiles costs
    only index arithmetic.  There is one body for every tier: the
    expression as written, after {!Passes.optimize}.  Execution
    strategies:

    - {!run_rect_interp} walks the expression AST at every point with
      bounds-checked mesh access — slow, obviously correct, the oracle.
    - the closure tier plays the role of the generated C: per-counter flat
      indices are strength-reduced to incremental adds, the resolved tree
      runs as a post-order register program built once per
      specialisation, over runs of up to 64 points at a time (one point
      at a time when a point may read what an earlier point of its tile
      wrote), and every read and write is unchecked (legality is established
      beforehand by {!Sf_analysis.Footprint.check_in_bounds}).
    - the native tier ({!Native}): once a specialisation is hot, its
      trees are printed as one OCaml module with literal deltas, built
      with [ocamlopt -shared], loaded with [Dynlink], and its tiles run
      there.

    All three perform the same float operations in the same order — no
    operand is re-associated, expanded or factored — so every tier equals
    the interpreter bit for bit, at any worker count, and promotion never
    changes a bit of any result.

    Execution order within a rect is row-major over the lattice, each point
    stored before the next is computed; in-place stencils therefore see
    earlier writes of the same sweep, which is the DSL's sequential
    semantics.  Backends only reorder or parallelise when the analysis
    proves it unobservable. *)

open Sf_mesh
open Snowflake

val run_rect_interp :
  Grids.t -> params:(string -> float) -> Stencil.t -> Domain.resolved -> unit

(** {2 Stencils at one specialisation}

    Computed from grid shapes and parameter values alone, once per
    specialisation ({!Plan.execute}); mesh data enters at {!attach}. *)

type form
(** A stencil's expression resolved: reads to a slot, a counter and a
    delta, constants and parameters to coefficient indices in tree order;
    its closure-tier program built. *)

val form :
  shape:Sf_util.Ivec.t -> grid:(string -> int) -> shapes:Sf_util.Ivec.t array ->
  params:(string -> float) -> Stencil.t -> form
(** [shape] is the iteration shape.  Grids are named by their index into
    [shapes] (and into the data {!attach} takes). *)

val native_form : form -> Native_emit.t
(** What {!Native} prints. *)

val geometry : form -> Domain.resolved -> int array
(** A non-empty tile's geometry, as {!Native_emit.program} reads it. *)

type bound

val attach : form -> floatarray array -> bound
(** The form over one instance's data, every grid's by its index. *)

val run_tile : Native.t * int -> bound -> int array -> unit
(** [run_tile (n, i) b geom] runs one tile: through native function [i]
    once [n] is promoted, else on the closure tier (charging [n] while it
    is a candidate). *)

val validate_shapes :
  grid_shape:(string -> Sf_util.Ivec.t option) -> shape:Sf_util.Ivec.t ->
  Stencil.t -> unit
(** The shape certificate, from shapes alone: every grid the stencil
    touches exists ([grid_shape] answers [Some]), its rank agrees with
    the iteration shape, and every access stays in bounds
    ([Footprint.check_in_bounds]); raises [Invalid_argument] with a
    descriptive message otherwise.  [Plan.execute] runs it when it makes
    a specialisation, so no instance runs unvalidated; [Gen.validate]
    runs it over a spec's declared grid shapes, so no grid is built to
    check a program. *)
