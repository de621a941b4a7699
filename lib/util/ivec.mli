(** Small integer vectors.

    Offsets, shapes, strides and grid points are all represented as [int
    array] values of equal length (the spatial dimensionality).  The
    functions here are total over equal-length inputs and raise
    [Invalid_argument] on rank mismatch, which always indicates a
    programming error rather than a data error. *)

type t = int array

val dims : t -> int
(** Number of dimensions (array length). *)

val zero : int -> t
(** [zero n] is the origin in [n] dimensions. *)

val make : int -> int -> t
(** [make n v] is the [n]-dimensional vector whose entries are all [v]. *)

val of_list : int list -> t
val to_list : t -> int list

val equal : t -> t -> bool
val compare : t -> t -> int
(** Lexicographic order. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t
val mul : t -> t -> t
(** Pointwise product. *)

val dot : t -> t -> int
val map2 : (int -> int -> int) -> t -> t -> t
val max2 : t -> t -> t
val min2 : t -> t -> t

val l1_norm : t -> int
val linf_norm : t -> int

val is_zero : t -> bool

val product : t -> int
(** Product of the entries, e.g. the number of points of a shape. *)

val strides : t -> t
(** Row-major strides of a shape: point [p] sits at flat index
    [dot (strides shape) p]. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
