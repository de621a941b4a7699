(** Polynomial normal form of stencil expressions.

    Most stencil bodies — including every operator in HPGMG — are small
    polynomials over grid reads once scalar parameters are substituted:
    the CC Laplacian is linear, a variable-coefficient GSRB update is
    cubic (dinv · β · u terms).  The compiled backend normalises the
    expression tree into [const + Σ coeff · r₁(·r₂(·r₃))], factors it
    ({!factorize}) and evaluates that with tight index arithmetic — on the
    closure tier, or as emitted native code ({!Native_emit}) — replacing the
    AST walk: the same strength reduction the paper's micro-compiler gets
    by emitting straight-line C.

    Normalisation reassociates floating-point arithmetic, so results may
    differ from the reference interpreter by rounding (≲ 1e-12
    relatively); the oracle tests compare with an appropriate tolerance.

    Expressions that are not polynomial (a grid read in a denominator) or
    that would expand too much return [None] and fall back to the closure
    path. *)

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
    normalisation itself against {!Expr.eval}). *)

(** {2 Common-factor extraction}

    A flat monomial table loads every tap of every monomial; most
    higher-degree stencil polynomials share factors (the GSRB update's
    twelve cubic terms all carry [dinv(0)]).  [factorize] rewrites the
    table as [const + Σ wᵢ·rᵢ + Σ rⱼ·subⱼ], greedily pulling out the read
    occurring in the most higher-degree monomials — a Horner-style scheme
    that reduces the GSRB body from 38 tap loads to the ~20 a hand kernel
    performs. *)

type factored = {
  fconst : float;
  flinear : (read * float) list;
  ffactors : (read * factored) list;
  fresidual : mono list;
      (** higher-degree monomials that share no read with any other monomial
          at this level: evaluated directly (a singleton factor would only
          add call overhead) *)
}

val factorize : t -> factored

val eval_factored : factored -> read_value:(read -> float) -> float
(** Reference evaluation of the factored form (tested ≡ {!eval} up to
    rounding). *)
