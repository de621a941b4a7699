(** Replayable counterexample corpus.

    A corpus case is an ordinary [.sfl] stencil program (parsable by every
    tool that reads [Program_io], including [sflint]) whose run metadata —
    iteration shape, grid shapes and contents, parameter values — rides in
    [;]-comment header lines the fuzzer itself understands:

    {v
    ; sffuzz (v 1) (seed 1234)
    ; sffuzz (shape 10 12)
    ; sffuzz (grid u (10 12) 77)      ; random-initialised, Mesh.random seed 77
    ; sffuzz (grid t1 (10 12) -1)     ; zero-initialised output
    ; sffuzz (param alpha 0.75)
    (group fuzz1234 ...)
    v}

    [dune runtest] replays every file in [test/corpus/] through the full
    differential matrix forever after (see docs/TESTING.md for the triage
    and promotion workflow). *)

val save : dir:string -> ?note:string -> Gen.spec -> string
(** Write the spec under [dir] (created if missing) as
    [<label>.sfl] (suffixed [-2], [-3], ... if taken); [note] lines are
    embedded as comments.  Returns the path written. *)

val load : string -> (Gen.spec, string) result
(** Parse a corpus file back into a runnable spec. *)

val to_string : ?note:string -> Gen.spec -> string
val of_string : label:string -> string -> (Gen.spec, string) result

val replay :
  ?only:string list -> string ->
  (unit, string) result
(** Load a file and run the differential check over the default target
    matrix ([only] filters backends, as in {!Diff.targets_for}). *)

val files : string -> string list
(** The [.sfl] files under a directory, sorted (empty when the directory
    does not exist). *)
