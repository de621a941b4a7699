(** Tolerance-aware floating-point comparison.

    Every backend runs a stencil's expression in its written order, so a
    backend equals the interpreter bit for bit.  Two {e different}
    computations of one quantity — a hand-written solver and the DSL's, an
    expanded normal form and the expression — agree only to "the same
    value up to a few units in the last place".  This module is the single
    definition of that notion, shared by the tests: a measured distance in ULPs
    ({!ulp_diff}), a combined ULP-or-absolute predicate ({!close}), and
    array forms over the [floatarray] storage meshes use.

    Two NaNs compare equal (the fuzzer's NaN-poisoning oracle relies on
    NaN being a stable value, not a mismatch); a NaN against a number is
    maximally distant. *)

val ulp_diff : float -> float -> int
(** Number of representable doubles strictly between the two arguments
    (0 when equal; [max_int] when exactly one is NaN).  The bit patterns
    are mapped to a monotone integer line, so the distance is meaningful
    across zero and between denormals. *)

val ulp_equal : ?ulps:int -> float -> float -> bool
(** [ulp_equal ~ulps a b] is [ulp_diff a b <= ulps].  [ulps] defaults to
    0 — bitwise equality modulo NaN and [-0. = +0.]. *)

val close : ?ulps:int -> ?atol:float -> float -> float -> bool
(** ULP distance within [ulps] {e or} absolute difference within [atol].
    The absolute escape hatch matters near zero, where cancellation can
    leave two backends picometres apart yet thousands of ULPs away.
    Defaults: [ulps = 0], [atol = 0.]. *)

(** {2 Arrays} *)

val array_max_ulp : floatarray -> floatarray -> int
(** Largest pointwise {!ulp_diff}; raises [Invalid_argument] on length
    mismatch. *)

val array_close : ?ulps:int -> ?atol:float -> floatarray -> floatarray -> bool
(** Pointwise {!close} over same-length arrays. *)

val first_mismatch :
  ?ulps:int -> ?atol:float -> floatarray -> floatarray ->
  (int * float * float) option
(** Index and values of the first pair that fails {!close} — the witness
    the differential executor reports.  [None] when the arrays agree. *)
