(** The native tier: hot polynomial stencils as compiled OCaml.

    The paper's micro-compilers emit C, build a shared object, load it and
    cache it by stencil hash.  This module does the same with OCaml: for a
    stencil {e structure} ({!Native_emit.key}) it prints a module
    ({!Native_emit.program}), builds it with [ocamlopt -shared] (the
    compiler that built this library, resolved at build time), loads it
    with [Dynlink] and runs that structure's tiles through it.  The module
    performs exactly the closure tier's float operations in the same
    order, so switching tiers never changes a bit of any result.

    {b Promotion} is ski rental.  Per structure, the time its tiles spend
    in the closure tier is summed; once it reaches the cost of getting
    native code — the last measured load when the module is already on
    disk (seeded with 5 ms), else the last measured build (seeded with
    50 ms) — exactly one
    caller promotes it while every other keeps interpreting.  Short-lived
    work therefore never pays a build.

    {b Artefacts} are named [sfk_<digest>.cmxs] after the digest of the
    source and the OCaml version, built in a private directory and renamed
    atomically into [$XDG_CACHE_HOME/snowflake/native] (or
    [~/.cache/snowflake/native]; created mode 0700, and refused when other
    users can write to it), so concurrent processes never see a partial
    file.  The directory is only created and checked when the first
    module is built or loaded.  Each is loaded at most once per process.

    {b Failures} — no compiler, a failing build, a [Dynlink] error — are
    recorded once ([Trace.Native_failures], {!failures}) and leave the
    structure on the closure tier for good; nothing raises out of a
    kernel.  The [Native_*] counters of {!Sf_trace.Trace} count
    structures, promotions, builds, build time and disk hits. *)

type structure

val structure : Native_emit.t -> structure
(** The process-wide record for this form's structure (created on first
    sight). *)

type entry = floatarray array -> floatarray -> int array -> int array -> unit
(** A loaded module's [run slots coeffs geom deltas] (see
    {!Native_emit.program}). *)

type verdict =
  | Run of entry  (** the structure is native: run the tile with this *)
  | Interpret  (** run the tile on the closure tier *)
  | Measure
      (** run it on the closure tier and {!charge} the time it took: the
          structure is still a candidate for promotion *)

val select : structure -> verdict
(** What one tile run of this structure should do now.  Under
    [Force] (below) a cold structure is promoted here first.  Allocates
    nothing. *)

external clock : unit -> (int[@untagged])
  = "sf_native_clock_byte" "sf_native_clock"
[@@noalloc]
(** Monotonic nanoseconds, for {!charge}. *)

val charge : structure -> int -> unit
(** Add closure-tier nanoseconds to the structure's total, and promote it
    once the total pays for native code. *)

(** {2 Control}

    Process-wide; meant for tests, the fuzzer and experiments. *)

type mode =
  | Auto  (** promote by ski rental (the default) *)
  | Off  (** closure tier only, even for promoted structures *)
  | Force  (** promote every structure on its first tile *)

val with_mode : mode -> (unit -> 'a) -> 'a
(** Run with the mode set, restoring the previous one afterwards. *)

val compiler : unit -> string
(** The [ocamlopt] that builds modules: the one that built this library,
    unless {!set_compiler} replaced it. *)

val set_compiler : string -> unit
(** Use another [ocamlopt] (tests point this at broken ones).  Forgets
    every structure's promotion state; loaded modules stay loaded. *)

val set_cache_dir : string -> unit
(** Use another artefact directory instead of the XDG one.  Forgets every
    structure's promotion state like {!set_compiler}. *)

val failures : unit -> string list
(** The most recent recorded failures (at most 16), newest first. *)
