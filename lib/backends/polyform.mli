(** Polynomial normal form of stencil expressions, for counting flops.

    Most stencil bodies — including every operator in HPGMG — are small
    polynomials over grid reads once scalar parameters are substituted:
    the CC Laplacian is linear, a variable-coefficient GSRB update is
    cubic (dinv · β · u terms).  {!Costing} counts a body's flops from its
    normal form [const + Σ coeff · r₁(·r₂(·r₃))], so the count does not
    depend on how the author grouped the expression.  No tier executes
    the normal form: they all run the expression as written ({!Exec}).

    Expressions that are not polynomial (a grid read in a denominator) or
    that would expand too much return [None]. *)

open Snowflake

type read = string * Affine.t

type mono = { coeff : float; reads : read list (* length 1..4 *) }

type t = { const : float; monos : mono list }

val of_expr : params:(string -> float) -> Expr.t -> t option
(** [None] when the expression is not a small polynomial over reads: of
    degree at most 4 (enough for every operator in this repository with
    headroom) and at most 128 monomials.  Like monomials are merged;
    zero-coefficient monomials dropped. *)

val eval : t -> read_value:(read -> float) -> float
(** Reference evaluation of the normal form (used by tests to check the
    normalisation itself against {!Expr.eval}, up to rounding: expanding
    re-associates). *)
