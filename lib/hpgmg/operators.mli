(** The HPGMG operator suite in 3-D, as the benchmarks and CLIs use it
    (paper §V).

    Every value but the two higher-order operators is {!Nd}'s, at rank 3.
    Operators are cell-centred with a one-cell ghost halo: a level of
    interior size n³ is stored in an (n+2)³ mesh.  Grid names: ["u"]
    (solution), ["f"] (right-hand side), ["res"] (residual), ["tmp"]
    (Jacobi ping-pong), ["beta_x"/"beta_y"/"beta_z"] (face-centred
    coefficients; [beta_x] at cell [i] is the coefficient on the face
    between cells [i-1] and [i]), ["dinv"] (precomputed inverse diagonal).
    The scalar parameter ["inv_h2"] is 1/h².

    The continuous operator is A u = −∇·(β∇u) (Poisson when β ≡ 1), with
    homogeneous Dirichlet boundaries enforced linearly through the ghost
    cells (ghost = −interior neighbour), exactly the boundary treatment in
    the paper's Fig. 4 example. *)

open Snowflake

val boundaries : grid:string -> Stencil.t list
(** The six face stencils of the linear Dirichlet condition on [grid]:
    ghost value ← −(first interior value on the other side of the face). *)

val laplacian_7pt : out:string -> input:string -> Stencil.t
(** Constant-coefficient 7-point operator:
    [out = inv_h2 * (6*input(0) − Σ face neighbours)] — the canonical
    CC 7-pt stencil of Fig. 7. *)

val residual_vc : Stencil.t
(** [res = f − A_vc u]: [Nd.residual (Nd.vc ~dims:3)]. *)

val dinv_setup : Stencil.t
(** [dinv = 1 / (inv_h2 · Σ face betas)] over the interior. *)

val gsrb_smooth : Group.t
(** One full GSRB smooth as measured in Fig. 8: boundaries, red sweep,
    boundaries, black sweep — the interleaved sequence the paper
    describes. *)

val jacobi_smooth : Group.t
(** Boundary exchange + one CC weighted-Jacobi sweep u→tmp plus the
    copy-back sweep tmp→u (Fig. 7's "CC Jacobi"). *)

val restriction : Stencil.t
(** Piecewise-constant (8-cell average) restriction of the fine ["res"]
    into the coarse ["f"]: iteration over the *coarse* interior, fine cells
    read through scale-2 affine maps.  Grid names: reads ["fine_res"],
    writes ["coarse_f"]. *)

val interpolation : Stencil.t list
(** Piecewise-constant interpolation-and-correct: fine ["u"] += coarse
    ["u"] of the containing coarse cell.  Eight stencils (one per fine-cell
    parity), each iterating the coarse interior and writing the fine mesh
    through a scale-2 output map.  Grid names: reads ["coarse_u"], reads and
    writes ["fine_u"]. *)

(** {2 Higher-order operators}

    The paper's §II claims "higher-order operators (larger stencils)" as a
    language feature; these exercise it. *)

val laplacian_27pt : out:string -> input:string -> Stencil.t
(** 27-point compact constant-coefficient operator (A = −Δ + O(h²)):
    weights (−128·centre + 14·faces + 3·edges + 1·corners)/30, radius-1
    but 27 taps. *)

val laplacian_4th : out:string -> input:string -> Stencil.t
(** Fourth-order 13-point operator: per axis
    (−u(−2) + 16u(−1) − 30u(0) + 16u(+1) − u(+2)) / 12, negated and scaled
    by [inv_h2].  Radius 2: its domain keeps two cells from each face, so
    it composes with a ghost region of width ≥ 2 or with interior-only
    evaluation. *)
