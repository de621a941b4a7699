(** Differential execution: one spec, every backend, [interp] as oracle.

    The interpreter walks the expression AST with bounds-checked access
    and is treated as the semantic ground truth; every other backend (and
    every interesting configuration of it — worker counts, explicit
    tiles, multicolor reordering, tall-skinny OpenCL work groups, the
    native tier) must reproduce its results bit for bit: every tier runs
    the stencil's own expression in its order.  A failure is reported
    with the target, grid, witness cell and both values — everything
    needed to triage or shrink. *)

type target = {
  backend : Sf_backends.Jit.backend;
  config : Sf_backends.Config.t;
  tname : string;  (** display name, e.g. ["openmp/w4/tile"] *)
  apps : int;
      (** applications per run (usually 1).  A target with [apps = k > 1]
          runs one [Jit.compile ~reps:k] kernel and is compared
          against k interp applications — the temporal-blocking oracle.
          [Custom] backends with [apps > 1] must build the k-application
          kernel themselves. *)
  native : bool;
      (** run under [Native.Force]: every specialisation is promoted to
          the native tier on first use *)
}

val default_targets : dims:int -> target list
(** The standard matrix: [compiled] (default config), [openmp] at 1 and 4
    workers, with explicit dims-matched tiles, with multicolor
    reordering, [opencl] with default and tall-skinny work groups, plus
    the fused openmp/opencl plans, a 3-application time-tiled openmp
    target, and the native tier forced on ([native] on [compiled], and
    [native/w4] on [openmp] at 4 workers). *)

val targets_for : only:string list option -> dims:int -> target list
(** {!default_targets} filtered to the given backend names
    (["compiled"], ["openmp"], ["opencl"], or ["native"] for the native
    targets); [None] keeps all. *)

type divergence = {
  target : string;
  grid : string;
  point : int list;
  expected : float;  (** the oracle's value *)
  got : float;
  oracle : string;  (** ["interp"] *)
  crashed : string option;
      (** set when the target raised instead of diverging numerically; the
          other fields are placeholders then ([grid] empty, NaN values) *)
}

val divergence_to_string : divergence -> string

val run_reference : ?apps:int -> Gen.spec -> Sf_mesh.Grids.t
(** [apps] (default 1) interp applications over fresh grids. *)

val check : targets:target list -> Gen.spec -> (unit, divergence) result
(** Run the spec on [interp] and on every target over identically
    initialised fresh grids; report the first cell whose bits differ (it
    tells [-0.] from [0.] and NaN payloads apart).  A target that
    {e raises} is reported as a divergence with [crashed] set rather than
    aborting the campaign. *)

(** {2 Fault injection}

    For validating the harness itself: a deliberately miscompiled custom
    backend that the differential loop must catch and the shrinker must
    minimise. *)

type bug =
  | Drop_last_stencil
      (** compiles the group without its final stencil (when it has more
          than one) — models a lost wave *)
  | Perturb_first_cell
      (** runs correctly, then nudges one cell of the first stencil's
          output by [1e-3] — models a single-lattice-point miscompile *)
  | Kernel_raise
      (** runs correctly, then raises [Sf_resilience.Fault.Injected] —
          models a crashing backend; the harness must report it as a
          [crashed] divergence, not abort *)
  | Nan_poison_cell
      (** runs correctly, then writes NaN into one cell of the first
          stencil's output — the silent-data-corruption shape
          [Sf_resilience.Guard] scans for *)
  | Mis_skew_tile
      (** a two-application temporal block with its skew forced to 0 —
          models the classic time-tiling bug (stale reads across slab
          seams) that [Schedule_check.certify_timetile_plan] rejects as
          SF024, smuggled past the certifier; groups with no axis-0
          dependence degrade to an honest loop *)

val injected_target : bug -> target
(** Registers (or re-registers) the buggy micro-compiler under the name
    ["sffuzz-buggy"] and returns a target selecting it. *)
