(** Structured diagnostics for the whole-program analyzer ([sflint]).

    Every finding any analysis pass produces — the four classic [Validate]
    checks, the dataflow passes in [Lint], and the schedule certifier in
    [Sf_backends.Schedule_check] — is one of these records: a stable code
    (the [SFxxx] catalogue below), a severity, a {!Snowflake.Srcloc.t}
    naming the group/stencil/part it is about, a human message, and an
    optional machine-suggested fix.  Two renderers are provided: a
    compiler-style text form and a line-stable JSON form for tooling.

    {2 Code catalogue}

    - [SF001] error — an access escapes its grid (with a concrete witness
      cell and the halo widening that would fix it)
    - [SF002] warning — a stencil's domain union writes some cell twice
    - [SF003] note — loop-carried dependence: the stencil runs sequentially
    - [SF004] error — a parameter is read but not bound by the caller
    - [SF011] uninitialized read — a grid is read before any stencil or
      declared input writes the cells read (error when the program's inputs
      are declared, warning when they are inferred)
    - [SF012] warning — dead store: a stencil's entire write lattice is
      overwritten before any read observes it
    - [SF021] error — certification failure: two tasks of the same wave of
      a backend plan touch a common cell with at least one write
    - [SF022] warning — the configuration forces a stencil parallel against
      the analysis ([Config.force_parallel]), so certification is the only
      safety net left
    - [SF023] error — illegal fusion: two concurrent tasks of a fused plan
      touch a common cell with at least one write
    - [SF024] error — a temporal-blocking plan's skew is below the group's
      dependence slope, so slab seams would read stale or future values
    - [SF025] error — the group cannot be time-tiled (non-identity write,
      a non-point-parallel stencil, or a non-unit-scale read of a
      group-written grid)
    - [SF030] note — pipeline certified: the streaming-SPMD schedule and
      its channel depths ([Pipeline_check.analyze])
    - [SF031] error — unsatisfiable channel sizing: the
      capacity-constrained pipeline graph has a zero-slack cycle (witness
      printed)
    - [SF032] error — the group is not pipelineable across ranks (impure
      halo copy, cross-rank reduction, non-neighbour exchange, …)
    - [SF033] warning — the certified channel depths exceed
      the channel budget ([Pipeline_check.analyze ~budget_bytes]); the
      bulk-synchronous path is the fallback
    - [SF034] error — the executed plan's ring depths disagree with the
      certificate ([Pipeline_check.verify_depths], the executor's tamper
      gate) *)

open Snowflake

type severity = Error | Warning | Note

type t = {
  code : string;  (** stable [SFxxx] identifier *)
  severity : severity;
  loc : Srcloc.t;
  message : string;
  hint : string option;  (** suggested fix, when the pass can compute one *)
}

val make :
  code:string -> severity:severity -> loc:Srcloc.t -> ?hint:string ->
  string -> t

val severity_to_string : severity -> string

val is_error : t -> bool
val has_errors : t list -> bool

val count : severity -> t list -> int

val sort : t list -> t list
(** Stable order: program order of the location, then code. *)

val catalogue : (string * severity * string) list
(** [(code, default severity, one-line description)] for every code the
    analyzer can emit, in catalogue order ([sflint --codes], docs). *)

val explain : string -> (severity * string * string) option
(** [(default severity, description, fix hint)] for a catalogue code —
    the payload behind [sflint --explain SFxxx].  [None] for codes not in
    the catalogue. *)

val strip_ranks : string -> string
(** Replace every SPMD rank qualifier (["@1_0"] in ["u@1_0"],
    ["halo_u@1_0_ax0_lo"], …) with ["@*"].  Strings without qualifiers
    are returned unchanged. *)

val collapse_ranks : t list -> t list
(** Deduplicate findings that differ only in rank qualification: SPMD
    programs replicate every grid per rank, so one defect reports once
    per rank (["u@0_0"], ["u@1_0"], …).  Diagnostics whose code,
    rank-stripped location, message and hint all agree collapse to one
    diagnostic (rank qualifiers rendered as ["@*"]) with a
    [" [xN ranks]"] suffix on the message.  Unreplicated findings pass
    through untouched; first-occurrence order is preserved. *)

val pp : Format.formatter -> t -> unit
(** [severity[code] loc: message] followed by an indented [hint:] line. *)

val to_string : t -> string

val render : t list -> string
(** All diagnostics, one per line (hints indented), plus a trailing
    [N error(s), M warning(s), K note(s)] summary line when non-empty. *)

val to_json : t -> string
(** One stable JSON object:
    [{"code":…,"severity":…,"group":…,"stencil":…,"part":…,"message":…,
      "hint":…}].  [group]/[stencil] are [null] when absent, [part] is
    [""] for a whole-stencil location, [hint] is [null] when absent. *)

val list_to_json : t list -> string
(** JSON array of {!to_json} objects (no trailing newline). *)

val json_escape : string -> string
(** Escape a string for inclusion inside JSON quotes (exposed for the CLI
    wrapper that adds file-level framing). *)
