(** Copy-on-checkpoint ring of [k] reusable snapshot buffers.

    The client supplies [alloc]/[save]/[restore] over its own state type
    (Mg snapshots the level-0 solution mesh with [Mesh.blit]); the ring
    allocates each buffer once, lazily, and at capacity overwrites the
    oldest snapshot in place — a checkpoint never allocates after the ring
    is warm.

    Every rollback bumps the [checkpoint.rollbacks] counter and, when
    tracing is on, records a zero-duration ["rollback:<label>"] phase
    marker, so [--profile] shows
    when and how often a run rewound. *)

type 'a t

val create :
  ?capacity:int ->
  ?label:string ->
  alloc:(unit -> 'a) ->
  save:('a -> unit) ->
  restore:('a -> unit) ->
  unit ->
  'a t
(** [capacity] defaults to 3 snapshots; [label] (default ["ckpt"]) names
    the trace markers.  Raises [Invalid_argument] if [capacity < 1]. *)

val checkpoint : 'a t -> tag:int -> unit
(** Save current state into the ring under [tag] (e.g. the cycle number),
    reusing the oldest buffer when at capacity. *)

val rollback : 'a t -> int option
(** Restore the newest snapshot and return its tag, or [None] if the ring
    is empty.  The snapshot {e stays} in the ring, so a later failure can
    roll back to the same point; use {!discard_latest} to rewind
    further. *)

val discard_latest : 'a t -> unit
(** Drop the newest snapshot (without restoring), exposing the one
    beneath it to {!rollback}. *)

val latest : 'a t -> int option
(** Tag of the newest snapshot. *)

val depth : 'a t -> int
(** Snapshots currently held. *)

val taken : 'a t -> int
(** Checkpoints taken over this ring's lifetime. *)

val rollbacks : 'a t -> int
(** Rollbacks performed on this ring. *)

