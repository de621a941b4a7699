(** The native tier's emitter, and the evaluation form both tiers share.

    A polynomial stencil body, factored by {!Polyform.factorize}, is
    lowered to a {!node} whose reads name a {e slot} (a distinct read
    grid), a {e counter} (a distinct stride·scale vector: reads whose flat
    index advances alike share one position) and a constant delta off that
    counter.  {!Exec}'s closure tier evaluates a node, and {!program}
    prints the same node as an OCaml module that performs exactly the same
    float operations in the same order, so the two tiers agree bit for
    bit.

    The printed source depends on the {e structure} only ({!key}): rank,
    slot and counter counts, the shape of the factor tree and which slot
    and counter each read uses.  Coefficients, deltas, strides, tile bases
    and counts are runtime arguments, so one module serves every tile,
    level, grid shape and parameter value with that structure.  No float
    literal and no name from the program enters the source. *)

type read = { slot : int; ctr : int; delta : int }

type node = {
  const : float;
  linear : (read * float) list;  (** [acc +. (w *. x)], in order *)
  factors : (read * node) list;  (** then [acc +. (x *. sub)], in order *)
  residual : (float * read list) list;
      (** then [acc +. r], where [r] starts at zero and adds each
          [(c *. x₁) *. x₂ ...] in order *)
}

type t = { rank : int; nslots : int; nctrs : int; body : node }

val coeffs : node -> floatarray
(** The node's floats in the order the emitted code reads them. *)

val deltas : node -> int array
(** The node's read deltas in the order the emitted code reads them. *)

val key : t -> string
(** The structure: equal keys print equal programs. *)

val program : t -> string
(** The module body: [run slots coeffs geom deltas] loops over one tile
    row-major, storing each point before computing the next.  [slots] holds
    the [nslots] read grids' data followed by the output's; [coeffs] and
    [deltas] are {!coeffs} and {!deltas}; [geom] holds the tile's [rank]
    counts, then per counter its flat base and [rank] increments, then the
    output's base and [rank] increments. *)

val registration : string -> string
(** The line that registers [run] under the given name with
    [caml_register_named_value] — the primitive behind [Callback.register]
    — when the module is loaded. *)
