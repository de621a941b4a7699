(** Rect executors: the innermost machinery shared by all backends.

    A backend lowers a stencil group to a schedule of (stencil, lattice
    tile) tasks.  {!prepare_compiled} performs the per-bind
    compilation work for one stencil — polynomial normalisation and
    factoring ({!Polyform}), lowering to a {!Native_emit.node}, grid lookups
    — and returns a reusable, thread-safe tile runner; executing the (many)
    tiles then costs only index arithmetic.  Execution strategies:

    - {!run_rect_interp} walks the expression AST at every point with
      bounds-checked mesh access — slow, obviously correct, the oracle.
    - the closure tier plays the role of the generated C: per-counter flat
      indices are strength-reduced to incremental adds, the factored
      polynomial is evaluated by a tree of closures, and the inner loop
      performs unchecked reads/writes (legality is established beforehand
      by {!Sf_analysis.Footprint.check_in_bounds}).  Non-polynomial bodies
      (a grid read in a denominator) use a closure walk of the AST.
    - the native tier ({!Native}): once a polynomial structure is hot, the
      same node is printed as OCaml, built with [ocamlopt -shared], loaded
      with [Dynlink], and its tiles run there.  It performs the closure
      tier's float operations in the same order, so promotion never
      changes a bit of any result, at any worker count.

    Execution order within a rect is row-major over the lattice, each point
    stored before the next is computed; in-place stencils therefore see
    earlier writes of the same sweep, which is the DSL's sequential
    semantics.  Backends only reorder or parallelise when the analysis
    proves it unobservable. *)

open Sf_mesh
open Snowflake

val run_rect_interp :
  Grids.t -> params:(string -> float) -> Stencil.t -> Domain.resolved -> unit

val prepare_compiled :
  Grids.t -> params:(string -> float) -> Stencil.t ->
  (Domain.resolved -> unit -> unit)
(** Two-stage: applying the result to a tile *instantiates* it (geometry,
    buffers — do this once per tile, at plan-build time) and yields a
    zero-setup thunk executing the tile, on the closure tier until the
    stencil's structure is promoted to the native tier.  Thunks for
    distinct tiles may run concurrently; one thunk is not reentrant. *)

val validate_shapes :
  grid_shape:(string -> Sf_util.Ivec.t option) -> shape:Sf_util.Ivec.t ->
  Stencil.t -> unit
(** The shape certificate, from shapes alone: every grid the stencil
    touches exists ([grid_shape] answers [Some]), its rank agrees with
    the iteration shape, and every access stays in bounds
    ([Footprint.check_in_bounds]); raises [Invalid_argument] with a
    descriptive message otherwise.  [Gen.validate] runs it over a spec's
    declared grid shapes, so no grid is built to check a program. *)

val validate_stencil : Grids.t -> shape:Sf_util.Ivec.t -> Stencil.t -> unit
(** {!validate_shapes} over the shapes of the bound meshes.  Every
    [Kernel.bind] of a [Plan.execute] kernel certifies each stencil
    before it instantiates any unchecked loop, so no instance runs
    unvalidated. *)
