(** Rect executors: the innermost machinery shared by all backends.

    A backend lowers a stencil group to a schedule of (stencil, lattice
    tile) tasks.  {!form} and {!geometry} do the compilation work for one
    stencil and tile at one specialisation — polynomial normalisation and
    factoring ({!Polyform}), lowering to a {!Native_emit.node}, tile
    geometry — so running the (many) tiles costs only index arithmetic.
    Execution strategies:

    - {!run_rect_interp} walks the expression AST at every point with
      bounds-checked mesh access — slow, obviously correct, the oracle.
    - the closure tier plays the role of the generated C: per-counter flat
      indices are strength-reduced to incremental adds, the factored
      polynomial is evaluated by a tree of closures, and the inner loop
      performs unchecked reads/writes (legality is established beforehand
      by {!Sf_analysis.Footprint.check_in_bounds}).  Non-polynomial bodies
      (a grid read in a denominator) walk the expression per point over
      the same resolved reads.
    - the native tier ({!Native}): once a specialisation is hot, its
      nodes are printed as one OCaml module with literal deltas, built
      with [ocamlopt -shared], loaded with [Dynlink], and its tiles run
      there.  It performs the closure tier's float operations in the same
      order, so promotion never changes a bit of any result, at any
      worker count.

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
(** A stencil's reads resolved to a slot, a counter and a delta; a
    polynomial body lowered to a {!Native_emit.node}, any other walked per
    point; its closure-tier evaluator built. *)

val form :
  grid:(string -> int) -> shapes:Sf_util.Ivec.t array ->
  params:(string -> float) -> Stencil.t -> form
(** Grids are named by their index into [shapes] (and into the data
    {!attach} takes). *)

val native_form : form -> Native_emit.t option
(** What {!Native} prints; [None] for a body that is not polynomial. *)

val geometry : form -> Domain.resolved -> int array
(** A non-empty tile's geometry, as {!Native_emit.program} reads it. *)

val scratch : form -> int
(** The length of the odometer and position buffers {!run_tile} needs. *)

type bound

val attach : form -> floatarray array -> bound
(** The form over one instance's data, every grid's by its index. *)

val run_tile :
  (Native.t * int) option -> bound -> int array -> int array -> int array ->
  unit
(** [run_tile native b geom oidx pos] runs one tile: with [Some (n, i)]
    through native function [i] once [n] is promoted, else on the closure
    tier (charging [n] while it is a candidate).  [oidx] and [pos] are
    scratch buffers owned by one task at a time. *)

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
