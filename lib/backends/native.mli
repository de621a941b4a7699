(** The native tier: hot stencils as compiled OCaml.

    The paper's micro-compilers emit C for one stencil at one shape, build
    a shared object, load it and cache it.  This module does the same with
    OCaml, for one {e specialisation} at a time: a kernel's stencils at one
    exact list of grid shapes and parameter values ({!Plan.execute}).  Its
    forms print as one module ({!Native_emit.program}) with
    every read delta a literal and the coefficients runtime values, built
    with [ocamlopt -shared] (the compiler that built this library),
    loaded with [Dynlink], and that specialisation's tiles run through
    it.  The module performs exactly the closure tier's float operations
    in the same order, so switching tiers never changes a bit of any
    result.

    {b Promotion} is ski rental, one account per specialisation: the time
    its tiles spend in the closure tier is summed, and once it reaches the
    cost of getting native code — nothing when this process already loaded
    a module of the same text, the last measured load when it is on disk
    (seeded with 5 ms), else the last measured build (seeded with 50 ms) —
    exactly one caller promotes it while every other keeps interpreting.
    Short-lived work therefore never pays a build.

    {b Artefacts} are named [sfk_<digest>.cmxs] after the printed source
    and the OCaml version, so specialisations that print the same program
    share one module.  They are built in a private directory and renamed
    atomically into [$XDG_CACHE_HOME/snowflake/native] (or
    [~/.cache/snowflake/native]; created mode 0700 when the first module
    is built or loaded, and refused when other users can write to it), and
    each is loaded at most once per process.

    {b Failures} — no compiler, a failing build, a [Dynlink] error — are
    recorded once ({!failures}) and leave the specialisation on the
    closure tier for good; nothing raises out of a kernel.  The [native.*]
    counters count specialisations ([native.structures]), promotions,
    builds, build time, disk hits and failures. *)

type t
(** One specialisation's native state: its forms, its ski-rental account
    and, once promoted, its loaded module. *)

val make : Native_emit.t array -> t
(** A cold account for a specialisation's forms, in the order
    {!Run}'s functions follow. *)

type entry = floatarray array -> floatarray -> int array -> unit
(** One form's [run slots coeffs geom] (see {!Native_emit.program}). *)

type verdict =
  | Run of entry array
      (** the specialisation is native: run form [i]'s tile with entry [i] *)
  | Interpret  (** run the tile on the closure tier *)
  | Measure
      (** run it on the closure tier and {!charge} the time it took: the
          specialisation is still a candidate for promotion *)

val select : t -> verdict
(** What one tile run of this specialisation should do now.  Under
    [Force] (below) a cold one is promoted here first.  Allocates
    nothing. *)

external clock : unit -> (int[@untagged])
  = "sf_native_clock_byte" "sf_native_clock"
[@@noalloc]
(** Monotonic nanoseconds, for {!charge}. *)

val charge : t -> int -> unit
(** Add closure-tier nanoseconds to the specialisation's account, and
    promote it once the total pays for native code. *)

(** {2 Control}

    Process-wide; meant for tests, the fuzzer and experiments. *)

type mode =
  | Auto  (** promote by ski rental (the default) *)
  | Off  (** closure tier only, even for promoted specialisations *)
  | Force  (** promote every specialisation on its first tile *)

val with_mode : mode -> (unit -> 'a) -> 'a
(** Run with the mode set, restoring the previous one afterwards. *)

val compiler : unit -> string
(** The [ocamlopt] that builds modules: the one that built this library,
    unless {!set_compiler} replaced it. *)

val set_compiler : string -> unit
(** Use another [ocamlopt] (tests point this at broken ones).  Looks for
    the compiler and checks the cache directory again at the next
    promotion; specialisations already promoted or failed keep that
    state, and loaded modules stay loaded. *)

val set_cache_dir : string -> unit
(** Use another artefact directory instead of the XDG one, from the next
    promotion on, like {!set_compiler}. *)

val failures : unit -> string list
(** The most recent recorded failures (at most 16), newest first. *)
