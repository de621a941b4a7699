(** Dimension-generic multigrid building blocks.

    The Snowflake language is rank-polymorphic; this module provides the
    HPGMG operator set for any dimensionality: three operators, and the
    residual, inverse diagonal and smoothers derived from any of them.
    [Mg.create ~dims] builds its groups from these constructors, so one
    V-cycle solves at every rank — 1-D and 2-D solves are useful in their
    own right (the paper's running example, Fig. 4, is 2-D) — and the 3-D
    instantiation is what {!Operators} re-exports.  Levels at any rank
    are [Level.create_nd].

    Grid-name conventions match the 3-D module: ["u"], ["f"], ["res"],
    ["tmp"], ["dinv"], and face coefficients ["beta_x"], ["beta_y"],
    ["beta_z"], ["beta_w"], then ["beta_a4"], ... for higher axes. *)

open Snowflake

val axis_name : int -> string
(** "x", "y", "z", "w", then "a4", "a5", ... *)

val beta_name : int -> string

val interior : dims:int -> Domain.t
val boundaries : dims:int -> grid:string -> Stencil.t list
(** 2·dims linear-Dirichlet face stencils. *)

(** {2 Operators}

    An operator is its matrix-free application and its diagonal; every
    solver component below is derived from that pair, once, at any
    rank (the Mat2Stencil recipe).  All read the scalar ["inv_h2"] =
    1/h². *)

type operator = {
  dims : int;
  name : string;  (** label prefix: ["cc_residual"], ["vc_residual"], … *)
  apply : string -> Expr.t;  (** [apply g] = A g at the centre cell *)
  diag : Expr.t;  (** the diagonal of A at the centre cell *)
}

val cc : dims:int -> operator
(** Constant coefficient: A u = inv_h2 · (2·dims·u(0) − Σ face
    neighbours); diagonal 2·dims·inv_h2. *)

val vc : dims:int -> operator
(** Variable coefficient, A u = −∇·(β∇u): inv_h2 · (Σ face betas · u(0)
    − Σ beta · neighbour), with face coefficients {!beta_name}; diagonal
    inv_h2 · Σ face betas.  The HPGMG benchmark operator. *)

val helmholtz : dims:int -> operator
(** HPGMG's full operator a·α·u + b·A_vc u, with the cell-centred
    coefficient grid ["alpha"] and scalar parameters ["a_coef"],
    ["b_coef"]; a = 0, b = 1 is {!vc}. *)

(** {2 Derived solver components} *)

val residual : operator -> Stencil.t
(** [res = f − A u] over the interior, labelled [name ^ "_residual"]. *)

val dinv : operator -> Stencil.t
(** [dinv = 1 / diag] over the interior. *)

val jacobi : operator -> Group.t
(** Boundaries, one weighted-Jacobi sweep
    [tmp = u + (2/3)·diag⁻¹·(f − A u)], then the copy-back tmp → u. *)

val gsrb_sweep : operator -> ncolors:int -> color:int -> Stencil.t
(** One in-place colour sweep [u += dinv · (f − A u)] over the
    points whose coordinate sum is [color] mod [ncolors]; reads the
    ["dinv"] grid that {!dinv} fills. *)

val gsrb : operator -> ncolors:int -> Group.t
(** Boundaries then one colour sweep, for each colour in turn.
    [~ncolors:2] is red-black Gauss–Seidel, the paper's benchmark
    smoother; [~ncolors:4] the four-colour ordering of Fig. 3b. *)

val chebyshev : operator -> degree:int -> Group.t
(** Degree-d Chebyshev smoothing: step k is
    [u ← u + cheb_a<k> · (f − A u)], ping-ponged through ["tmp"] with
    boundaries before each step (and a copy-back after an odd number).
    Raises [Invalid_argument] for [degree < 1]. *)

val chebyshev_params :
  dims:int -> level_h:float -> lambda_lo_frac:float -> degree:int ->
  (string * float) list
(** Bindings for {!chebyshev}: [inv_h2] and the classic step sizes
    ["cheb_a<k>"] for the eigenvalue interval
    [[lambda_lo_frac·λmax, λmax]], with λmax = 4·dims/h², the bound for
    {!cc}. *)

(** {2 Grid transfers} *)

val restriction : dims:int -> Stencil.t
(** Piecewise-constant 2^dims-cell average, ["fine_res"] → ["coarse_f"]. *)

val interpolation : dims:int -> Stencil.t list
(** Piecewise-constant correction, 2^dims parity stencils,
    ["coarse_u"] → ["fine_u"]. *)

val interpolation_linear : dims:int -> Stencil.t list
(** Multilinear correction, 2^dims parity stencils of 2^dims coarse taps
    each, weights 3/4 (containing cell) and 1/4 (neighbour toward the
    fine cell) per axis; reads ["coarse_u"]'s ghosts, so fill them
    first. *)

(** {2 Manufactured problem, any dimension} *)

val exact_sine : float array -> float
(** Π sin(π xᵢ). *)

val rhs_sine : dims:int -> float array -> float
(** dims·π²·{!exact_sine} — the Poisson right-hand side. *)
