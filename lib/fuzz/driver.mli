(** The fuzzing campaign: generate → differentially execute → (metamorphic
    oracles) → shrink → record.

    This is the engine behind [bin/sffuzz.exe] and the bounded [@fuzz]
    test alias; both are thin wrappers so that a campaign is equally
    runnable from the CLI, from CI and from a unit test asserting the
    harness catches an injected bug. *)

type options = {
  seed : int;  (** program [i] of the campaign uses [seed + i] *)
  count : int;
  max_dims : int;
  only : string list option;  (** backend filter, as {!Diff.targets_for} *)
  shrink : bool;
  max_shrink_evals : int;
  corpus_dir : string option;  (** write shrunk counterexamples here *)
  oracles : bool;
  inject : Diff.bug option;  (** add the deliberately buggy backend *)
  log : string -> unit;  (** progress/diagnostic sink *)
}

val default_options : options
(** seed 42, count 100, max_dims 3, all backends,
    shrinking on (400 evals), no corpus dir, oracles on, no injection,
    silent log. *)

type failure = {
  original : Gen.spec;  (** as generated *)
  minimised : Gen.spec;  (** after shrinking (== original when off) *)
  detail : string;  (** divergence or oracle message *)
  corpus_file : string option;
}

type report = { tested : int; failures : failure list }

val run : options -> report
(** The campaign.  Deterministic for fixed options (modulo filesystem
    state in [corpus_dir]). *)

val replay_paths :
  ?only:string list -> ?log:(string -> unit) ->
  string list -> (string * string) list
(** Replay corpus files; returns [(path, error)] for each failure. *)

val report_exit_code : report -> int
(** 0 when clean, 1 when any failure. *)
