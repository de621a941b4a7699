(** Persistent roofline-guided autotuning.

    A {!plan} is one point of the space the backends understand — fusion
    on/off, spatial tile sizes, temporal depth and block.  {!tune} ranks
    the bounded candidate set {e analytically} (the single-pass
    [Costing] models over the measured — or assumed — STREAM bandwidth),
    confirms the top few predictions with timed runs supplied by the
    caller, and persists the winner in a JSON DB keyed by (group, shape,
    backend, workers, reps, machine fingerprint).  A later run with the
    same key replays the stored plan without measuring anything
    ([autotune.db_hits] among the traced counters); any key change — different
    hardware, worker count, group or shape — misses and re-tunes.

    The DB lives at [$SF_TUNE_DB], or [~/.cache/snowflake/tuning.json];
    a corrupt or missing file reads as empty, and writes are atomic
    (temp file + rename).  Stored plans are invalidated implicitly by
    the key: there is nothing to migrate, stale entries simply stop
    matching. *)

open Sf_util
open Snowflake

type plan = {
  fusion : bool;
  tile : int list option;
  time_tile : int;  (** 1 = no temporal blocking *)
  time_block : int;  (** axis-0 slab size, 0 = auto *)
}

val plan_of_config : Config.t -> plan
val apply : plan -> Config.t -> Config.t
val describe : plan -> string

type source =
  | Db  (** replayed from the persistent DB *)
  | Measured  (** ranked analytically, confirmed by timed runs *)
  | Analytic  (** reserved: analytic ranking only *)

val source_to_string : source -> string

type result = {
  plan : plan;
  config : Config.t;  (** the caller's config with the plan applied *)
  predicted_s : float;
  measured_s : float option;  (** [None] on a DB hit *)
  source : source;
}

val machine_fingerprint : unit -> string
val default_db_path : unit -> string

val candidates :
  Config.t -> shape:Ivec.t -> reps:int -> Group.t -> plan list
(** The bounded plan space: fusion x tile options for one-application
    plans, plus temporal candidates when [reps >= 2] and the group is
    [Timetile.legal]. *)

val predicted_seconds :
  Config.t -> shape:Ivec.t -> reps:int -> Group.t -> plan -> float
(** Analytic time for [reps] applications under the plan:
    bytes / bandwidth + a small arithmetic term.  Bandwidth is
    [Trace.bandwidth_gbs] when a STREAM measurement has been joined,
    else a pessimistic default. *)

val tune :
  ?db:string ->
  ?top:int ->
  ?persist:bool ->
  config:Config.t ->
  backend:Jit.backend ->
  shape:Ivec.t ->
  reps:int ->
  measure:(Config.t -> float) ->
  Group.t ->
  result
(** [measure cfg] must time one execution of the workload under [cfg]
    (seconds); it is called only for the [top] (default 3) analytically
    best candidates, and only on a DB miss.  [persist] (default [true])
    writes the winner back to the DB. *)

(** {2 Direct DB access}

    The write path many tenants share: every publication is an exclusive
    unique temp file in the DB's directory followed by an atomic rename,
    so concurrent writers (processes or domains) interleave to
    last-writer-wins — entries may be superseded, the document is never
    torn.  Exposed for the serving layer (one tuning DB across tenants)
    and for the concurrency property tests that pin that guarantee. *)

val db_is_wellformed : db:string -> bool
(** The DB file is absent, or parses as a version-1 document with an
    [entries] array — the invariant concurrent writers must preserve. *)

val db_entry_count : db:string -> int
(** Parsed entries ([0] for a missing — or corrupt — file; use
    {!db_is_wellformed} to tell the two apart). *)

val db_persist :
  db:string ->
  config:Config.t ->
  backend:Jit.backend ->
  shape:Ivec.t ->
  reps:int ->
  plan:plan ->
  ?predicted_s:float ->
  ?measured_s:float ->
  Group.t ->
  unit
(** Store [plan] under the same key {!tune} would use (read-modify-write
    of the whole document, atomically renamed into place). *)

val db_replay :
  db:string ->
  config:Config.t ->
  backend:Jit.backend ->
  shape:Ivec.t ->
  reps:int ->
  Group.t ->
  plan option
(** The stored plan for that key, if any. *)
