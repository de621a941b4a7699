(** The native tier's emitter, and the evaluation form both tiers share.

    A polynomial stencil body, factored by {!Polyform.factorize}, is
    lowered to a {!node} whose reads name a {e slot} (a distinct read
    grid), a {e counter} (a distinct stride·scale vector: reads whose flat
    index advances alike share one position) and a constant delta off that
    counter.  {!Exec}'s closure tier evaluates a node, and {!program}
    prints the same node as OCaml that performs exactly the same float
    operations in the same order, so the two tiers agree bit for bit.

    A node is built for one grid shape, so its deltas are known: the
    printed code carries each as a literal ([p0 + 4225]), which the
    compiler folds into an addressing mode.  Coefficients, tile bases,
    increments and counts stay runtime arguments.  No float literal and no
    name from the program enters the source. *)

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

val program : t array -> string
(** One module for a specialisation's forms: it binds [runs], an array
    holding, per form and in order, a function [run slots coeffs geom]
    that loops over one tile row-major, storing each point before
    computing the next.  Forms that print the same function share it.
    [slots] holds the form's [nslots] read grids' data followed by the
    output's; [coeffs] is {!coeffs}; [geom] holds the tile's [rank]
    counts, then per counter its flat base and [rank] increments, then the
    output's base and [rank] increments. *)

val registration : string -> string
(** The line that registers [runs] under the given name with
    [caml_register_named_value] — the primitive behind [Callback.register]
    — when the module is loaded. *)
