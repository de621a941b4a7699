(** Manufactured problems for verification (the role of HPGMG's built-in
    problem setup).

    The continuous problem is −∇·(β∇u) = f on the unit cube with
    homogeneous Dirichlet boundaries. *)

val exact_sine : float -> float -> float -> float
(** u(x,y,z) = sin(πx)·sin(πy)·sin(πz) — zero on the boundary;
    {!Nd.exact_sine} at rank 3. *)

val rhs_sine : float -> float -> float -> float
(** f = −Δu = 3π²·u for the β ≡ 1 (Poisson) case; {!Nd.rhs_sine}
    [~dims:3]. *)

val beta_smooth : float -> float -> float -> float
(** A strictly positive, smoothly varying coefficient
    1 + ½·sin(2πx)·sin(2πy)·sin(2πz)·0.9 used for the variable-coefficient
    experiments (heterogeneous medium). *)

val setup_poisson : Level.t -> unit
(** β ≡ 1, f = {!rhs_sine} at cell centres, u = 0. *)

val setup_variable : seed:int -> Level.t -> unit
(** β = {!beta_smooth}, f = deterministic pseudo-random interior values in
    [-1, 1] drawn from one [Random] stream over the interior, axis 0
    outermost, u = 0.  Used when only convergence factors (not discretisation
    error) are checked. *)
