(** A simulated distributed-memory (SPMD) substrate — the paper's §VII
    future work ("new backends to target distributed-memory systems via
    MPI or UPC++"), realised without a network: ranks are disjoint mesh
    sets in one process, and — the interesting part — *halo exchange is
    expressed as Snowflake stencils*.  A ghost-fill from a neighbour rank
    is a copy stencil with a large constant offset between two grids, so
    the ordinary Diophantine analysis schedules all communication of a
    sweep into one parallel wave and proves it independent of the
    interior computation, exactly the way the paper treats physical
    boundary conditions.

    Decomposition: the global interior (global_n per axis, global_n =
    local_n · ranks-per-axis) is split into equal boxes; every rank owns a
    (local_n+2)^dims mesh per grid.  Rank grids are named
    ["<base>@<i>_<j>_..."]. *)

open Sf_util
open Sf_mesh
open Snowflake

type t = private {
  dims : int;
  rank_grid : Ivec.t;  (** ranks per axis *)
  local_n : int;
  shape : Ivec.t;  (** local iteration shape, (local_n+2)^dims *)
  grids : Grids.t;  (** every rank's meshes, rank-qualified names *)
  dead : (string, Ivec.t) Hashtbl.t;
      (** ranks whose memory is currently lost (see {!kill_rank}) *)
  mutable fills : (string * (float array -> float)) list;
      (** per-base fills recorded by {!fill_interior} — the static data a
          recovered rank re-derives *)
  mutable beta_fn : (float array -> float) option;
}

val create : rank_grid:int list -> local_n:int -> t
(** Allocates u/f/res/tmp/dinv + face betas (β ≡ 1) for every rank.
    [local_n] must be even and ≥ 2; rank counts positive. *)

val ranks : t -> Ivec.t list
(** All rank coordinates, row-major. *)

val rank_name : string -> Ivec.t -> string
(** ["u" ↦ "u@1_0"] etc. *)

val global_n : t -> int
(** Global interior cells per axis ([local_n] · ranks; requires a cubic
    rank grid for a cubic global domain — non-cubic rank grids give a
    rectangular global domain and this returns the axis-0 extent). *)

val exchange_stencils : t -> base:string -> Stencil.t list
(** For every rank: per axis and side, either a halo-copy stencil reading
    the neighbouring rank's owned face (interior faces) or a linear
    Dirichlet boundary stencil (physical faces).  One wave's worth of
    communication+BC, by construction. *)

val gsrb_smooth_group : t -> Group.t
(** exchange/red sweep/exchange/black sweep across every rank — the
    distributed analogue of [Operators.gsrb_smooth], one analysable
    group. *)

val residual_group : t -> Group.t

val init_dinv : t -> unit

val set_beta : t -> (float array -> float) -> unit
(** Evaluate β at global face-centre coordinates on every rank. *)

val fill_interior : t -> base:string -> (float array -> float) -> unit
(** Fill every rank's interior from a function of *global* physical
    cell-centre coordinates. *)

val params : t -> (string * float) list

val gather : t -> base:string -> Mesh.t
(** Assemble the global mesh, (global extents + 2) with a ghost ring, from
    the ranks' owned cells (ghosts zero). *)

val scatter : t -> base:string -> Mesh.t -> unit
(** Distribute a global mesh's interior into the ranks' owned cells.
    Raises [Invalid_argument] unless the mesh has {!gather}'s shape. *)

val run_group : t -> Group.t -> unit
(** Compile (supervised, OpenMP-style backend, pool-wide workers) and run
    one group over the rank set.  Under an armed fault campaign the
    invocation additionally consults the ["rank"] site (a [Kill_rank]
    firing loses a rank and aborts the sweep — the now-stale plan is not
    run) and the ["halo"] site, and transient failures are retried with
    supervisor backoff. *)

(** {2 Rank failure and recovery}

    A killed rank models a lost node: its meshes read as NaN until
    recovery.  Groups built while a rank is dead schedule {e around} it —
    no stencils for the dead rank, and its alive neighbours' facing ghost
    planes degrade to zero-gradient one-sided stencils instead of halo
    copies, so sweeps keep running on the survivors. *)

val kill_rank : t -> Ivec.t -> unit
(** Mark the rank dead and poison its meshes with NaN.  Idempotent. *)

val dead_ranks : t -> Ivec.t list

val inject_rank_faults : t -> Ivec.t list
(** Consult the ["rank"] fault site for every alive rank, killing those
    for which a [Kill_rank] clause fires; returns the newly killed ranks
    (empty when faults are disarmed).  Called automatically by
    {!run_group}. *)

val recover : ?sweeps:int -> t -> int
(** Reconstruct every dead rank and return how many were recovered.
    Static data (f, β, dinv) is re-derived from the fills recorded by
    {!fill_interior} and {!set_beta}; the lost solution gets a first guess
    by per-axis linear interpolation between the alive neighbours' nearest
    owned planes (0 at physical boundaries); then [sweeps] (default 4)
    GSRB sweeps over just the recovered ranks — with full-width exchanges
    — smooth the reconstruction back into the global solution.  Each
    recovery is a [spmd.rank_recoveries] counter increment and a
    ["recover:<rank>"] span when tracing is on. *)
