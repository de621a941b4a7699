(** The native tier's emitter: one tree, printed as written.

    A form's body is the stencil's own expression with its leaves
    resolved ({!Exec.form}): every grid read names a {e slot} (a distinct
    read grid), a {e counter} (a distinct stride·scale vector: reads whose
    flat index advances alike share one position) and a constant delta
    off that counter; every constant and parameter names an index into a
    coefficient array, in tree order.  Operators keep their operands and
    their order: nothing is expanded, re-associated or factored, and a
    division stays a division.  [Snowflake.Expr.eval], {!Exec}'s
    closure tier and the code {!program} prints therefore perform the same
    float operations in the same order, and agree bit for bit.

    A tree is resolved for one grid shape, so its deltas are known: the
    printed code carries each as a literal ([p0 + 4225]), which the
    compiler folds into an addressing mode.  Coefficients, tile bases,
    increments and counts stay runtime arguments.  No float literal and no
    name from the program enters the source. *)

type read = { slot : int; ctr : int; delta : int }

type expr =
  | K of int  (** coefficient [i] *)
  | Load of read
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type t = { rank : int; nslots : int; nctrs : int; body : expr }

val leaves : expr -> int * read list
(** The tree's coefficient count, and its distinct loads in
    first-occurrence order: what both tiers bind once per point. *)

val program : t array -> string
(** One module for a specialisation's forms: it binds [runs], an array
    holding, per form and in order, a function [run slots coeffs geom]
    that loops over one tile row-major, loading each distinct read of a
    point once and storing the point before computing the next.  Forms
    that print the same function share it.  [slots] holds the form's
    [nslots] read grids' data followed by the output's; [coeffs] holds the
    form's coefficients; [geom] holds the tile's [rank] counts, then per
    counter its flat base and [rank] increments, then the output's base
    and [rank] increments. *)

val registration : string -> string
(** The line that registers [runs] under the given name with
    [caml_register_named_value] — the primitive behind [Callback.register]
    — when the module is loaded. *)
