(** Executable kernels — what a Snowflake micro-compiler produces.

    The paper's [compile] returns a callable, and grids are bound to it at
    call time.  Here compilation returns a [Kernel.t] whose [bind] checks a
    set of named meshes (and scalar parameter values) against the plan,
    looks the parameters up and instantiates every step once; the
    [instance] it returns performs the stencil group on those meshes, with
    no lookup, as often as it is called.  Kernels close over the *plan*
    (schedule, tiles), never over mesh storage: only instances hold
    meshes, so a cached kernel keeps no caller's grids alive. *)

open Sf_mesh

type instance = unit -> unit
(** Runs on the meshes bound by [bind], even after its [Grids.t] rebinds a
    name.  Not reentrant. *)

type t = private {
  name : string;
  backend : string;
  description : string;  (** human-readable plan summary, for logs/tests *)
  bind : ?params:(string * float) list -> Grids.t -> instance;
      (** raises [Invalid_argument] for a missing, mis-ranked or undersized
          grid or an unbound parameter, before any instance exists *)
  run : ?params:(string * float) list -> Grids.t -> unit;
      (** [bind ?params grids ()], for one-shot calls *)
}

val make :
  name:string ->
  backend:string ->
  ?description:string ->
  (?params:(string * float) list -> Grids.t -> instance) ->
  t
(** The only constructor; it derives [run] from [bind]. *)

val param_lookup :
  ?loc:Snowflake.Srcloc.t -> (string * float) list -> string -> float
(** Lookup that raises [Invalid_argument] naming the missing parameter —
    and, when [loc] is supplied, the stencil/group it was needed by, e.g.
    [kernel: unbound parameter "dinv" in smooth/gsrb_red]. *)
