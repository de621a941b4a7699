(** One level of the multigrid hierarchy, at any rank.

    A level of interior size n^dims owns its meshes — solution, right-hand
    side, residual, Jacobi scratch, one face-coefficient array per axis
    (named by {!Nd.beta_name}) and the inverse diagonal — all allocated
    (n+2)^dims with a one-cell ghost ring.  The physical domain is the unit
    hypercube; the mesh spacing is h = 1/n and cell p is centred at
    ((p₀−½)h, (p₁−½)h, …) with pₐ = 1..n interior.

    Functions that take a mesh raise [Invalid_argument] unless it has the
    level's shape.  The [_nd] functions take and pass coordinates as a
    [float array] of length [dims].  Their unsuffixed forms are the 3-D
    API the HPGMG drivers use: they pass (x, y, z) as three arguments and
    need a 3-D level. *)

open Sf_util
open Sf_mesh

type t = {
  n : int;  (** interior cells per axis; must be even and ≥ 2 *)
  dims : int;  (** rank *)
  shape : Ivec.t;  (** n+2 on every axis *)
  h : float;  (** 1 / n *)
  grids : Grids.t;
}

val create_nd : dims:int -> n:int -> t
(** Allocates all meshes zeroed except betas, which default to 1
    (constant-coefficient Poisson).  Raises [Invalid_argument] for
    [dims < 1] or odd or too-small [n]. *)

val create : n:int -> t
(** [create_nd ~dims:3]. *)

val params : t -> (string * float) list
(** The scalar bindings every kernel on this level needs: [inv_h2]. *)

val u : t -> Mesh.t
val f : t -> Mesh.t
val res : t -> Mesh.t
val dinv : t -> Mesh.t

val dof : t -> int
(** n^dims — unknowns on this level. *)

val cell_center_nd : t -> Ivec.t -> float array
(** Physical coordinates of a cell's centre. *)

val cell_center : t -> Ivec.t -> float * float * float

val fill_interior_nd : Mesh.t -> t -> (float array -> float) -> unit
(** Evaluate a function of physical cell-centre coordinates over the
    interior cells, axis 0 outermost (the order of [Domain.iter]), into a
    mesh belonging to this level.  The coordinate array is reused between
    calls. *)

val fill_interior : Mesh.t -> t -> (float -> float -> float -> float) -> unit

val set_beta_nd : t -> (float array -> float) -> unit
(** Fill the face-coefficient meshes by evaluating β at face centres
    (every stored face, including those bordering ghosts).  The coordinate
    array is reused between calls. *)

val set_beta : t -> (float -> float -> float -> float) -> unit

val interior_norm_l2 : t -> Mesh.t -> float
(** Discrete L2 norm over interior cells only (ghosts excluded). *)

val interior_norm_linf : t -> Mesh.t -> float

val error_vs_nd : t -> Mesh.t -> (float array -> float) -> float
(** L∞ distance between a mesh and an exact solution sampled at cell
    centres, over the interior. *)

val error_vs : t -> Mesh.t -> (float -> float -> float -> float) -> float
