(** Post-wave NaN/Inf guard scans.

    The supervisor runs a scan over a kernel's output grids after each
    invocation, so a NaN born in one sweep is caught at the kernel
    boundary instead of poisoning a whole V-cycle.  Two intensities:
    [Sample] checks ~1024 strided points per mesh (plus the last point),
    [Full] checks every point ([SF_GUARD=full]).

    Guards are {b off by default} on clean runs: with no explicit mode and
    no armed faults, {!effective} is [Off] and the supervisor adds nothing
    to the hot path.  Arming any fault clause implies [Sample]. *)

open Sf_mesh

type mode = Off | Sample | Full

val mode_name : mode -> string
val mode_of_string : string -> mode option

exception Tripped of { grid : string; index : int; value : float }
(** Raised when a scan finds a non-finite value; a [guard.trips]
    counter increment and a zero-duration ["guard:<grid>"] phase marker
    record the detection. *)

val set_mode : mode -> unit
(** Force the mode (the [--guard] CLI flag); wins over [SF_GUARD]. *)

val clear_mode : unit -> unit

val effective : unit -> mode
(** {!set_mode} if forced, else [SF_GUARD], else [Sample] when
    {!Fault.armed}, else [Off]. *)

val active : unit -> bool
(** [effective () <> Off]. *)

val scan_mesh : ?mode:mode -> name:string -> Mesh.t -> unit
(** Scan one mesh (default mode {!effective}); raises {!Tripped} on the
    first non-finite value. *)

val scan_grids : ?mode:mode -> Grids.t -> string list -> unit
(** Scan the named grids (missing names are skipped — DCE may have removed
    an output). *)

