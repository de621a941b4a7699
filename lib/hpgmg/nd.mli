(** Dimension-generic multigrid building blocks.

    The Snowflake language is rank-polymorphic; this module provides the
    HPGMG operator set for any dimensionality.  [Mg.create ~dims] builds
    its groups from these constructors, so one V-cycle solves at every
    rank — 1-D and 2-D solves are useful in their own right (the paper's
    running example, Fig. 4, is 2-D) — and the 3-D instantiation is what
    {!Operators} re-exports.  Levels at any rank are [Level.create_nd].

    Grid-name conventions match the 3-D module: ["u"], ["f"], ["res"],
    ["tmp"], ["dinv"], and face coefficients ["beta_x"], ["beta_y"],
    ["beta_z"], ["beta_w"], then ["beta_a4"], ... for higher axes. *)

open Snowflake

val axis_name : int -> string
(** "x", "y", "z", "w", then "a4", "a5", ... *)

val beta_name : int -> string

(** {2 Operators} *)

val interior : dims:int -> Domain.t
val boundaries : dims:int -> grid:string -> Stencil.t list
(** 2·dims linear-Dirichlet face stencils. *)

val cc_apply_expr : dims:int -> string -> Expr.t
(** A_cc u = inv_h2 · (2·dims·u(0) − Σ face neighbours). *)

val laplacian_cc : dims:int -> out:string -> input:string -> Stencil.t
val residual_cc : dims:int -> Stencil.t
val jacobi_cc : dims:int -> out:string -> input:string -> Stencil.t
val copy_interior : dims:int -> out:string -> input:string -> Stencil.t
val jacobi_smooth : dims:int -> Group.t

val vc_apply_expr : dims:int -> string -> Expr.t
val residual_vc : dims:int -> Stencil.t
val dinv_setup : dims:int -> Stencil.t
val gsrb_color : dims:int -> color:int -> Stencil.t
val gsrb_smooth : dims:int -> Group.t

val restriction : dims:int -> Stencil.t
(** Piecewise-constant 2^dims-cell average, ["fine_res"] → ["coarse_f"]. *)

val interpolation : dims:int -> Stencil.t list
(** Piecewise-constant correction, 2^dims parity stencils,
    ["coarse_u"] → ["fine_u"]. *)

(** {2 Manufactured problem, any dimension} *)

val exact_sine : float array -> float
(** Π sin(π xᵢ). *)

val rhs_sine : dims:int -> float array -> float
(** dims·π²·{!exact_sine} — the Poisson right-hand side. *)
