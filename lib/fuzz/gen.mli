(** Seeded generation of well-formed stencil programs.

    A {!spec} is a complete, self-contained test case: a stencil group
    plus everything needed to run it — the iteration shape, the shape and
    deterministic contents of every grid it touches, and values for its
    scalar parameters.  Two calls with the same seed produce structurally
    equal specs, which is what makes fuzz findings replayable.

    Generated programs draw from the shapes the paper's workloads use:
    weighted components and sparse taps over interiors, colored (red/black)
    in-place sweeps, strided rects, disjoint domain unions, face/boundary
    rects, scale-2 restriction reads and non-identity [out_map]
    interpolation writes, chained so later stencils consume earlier
    outputs.  Every spec is validated against the backends' own
    {!Sf_backends.Exec.validate_shapes} before being returned, so a spec
    that compiles is in-bounds by construction.

    Union rects are always disjoint: overlapping unions are semantically
    fine for out-of-place stencils but trip the (deliberately
    conservative) schedule certifier, and the metamorphic oracles need
    generated programs to certify. *)

open Sf_util
open Snowflake

type grid_spec = {
  gname : string;
  gshape : Ivec.t;
  gseed : int;
      (** [>= 0]: filled by [Mesh.random ~seed:gseed] (a program input);
          [< 0]: zero-initialised (an output/scratch grid). *)
}

type spec = {
  label : string;
  seed : int;
  shape : Ivec.t;  (** iteration shape passed to [Jit.compile] *)
  group : Group.t;
  grids : grid_spec list;
  params : (string * float) list;
}

val spec : ?max_dims:int -> seed:int -> unit -> spec
(** Deterministic in [seed].  [max_dims] (default 3, capped at 3) bounds
    the rank of the iteration space. *)

val build_grids : ?fill:float -> spec -> Sf_mesh.Grids.t
(** Fresh mesh storage for one run of the spec.  Input grids
    ([gseed >= 0]) are deterministic pseudo-random; the rest are filled
    with [fill] (default [0.] — pass [nan] for the poisoning oracle). *)

val inputs : spec -> string list
(** Names of the grids the spec initialises with data ([gseed >= 0]). *)

val restrict_grids : spec -> spec
(** Drop grid and parameter bindings the group no longer touches (used
    after shrinking removes stencils). *)

val grid_cells : spec -> int
(** Cells of every declared grid together, what [build_grids] allocates;
    saturates at [max_int] instead of overflowing. *)

val validate : spec -> (unit, string) result
(** Re-run the backends' bounds/rank validation over every stencil,
    against the declared grid shapes (no grid is built); a declared grid
    with no cells is an error too. *)

val describe : spec -> string
(** Multi-line human summary: seed, shape, grids, params and the printed
    program — what the fuzzer shows on divergence. *)
