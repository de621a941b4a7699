(** The sfserved wire protocol: versioned, length-prefixed binary frames.

    Every message is one frame: a big-endian [u32] payload length, a tag
    byte, then tag-specific fields.  Integers are big-endian; strings are
    [u32] length + bytes; floats travel as their IEEE-754 [u64] bit
    pattern, so a solve result is {e bitwise} what the server computed —
    the corpus-replay tests compare server output against a local run
    with [ulps = 0].

    The protocol is deliberately binary: programs and error messages are
    free-form text that the core sexp reader could not safely embed (its
    atoms have no quoting), and grid payloads are bulk float data.

    A connection opens with {!Hello}/{!Welcome} (version check plus a
    capability intersection); everything after is request/reply in lock
    step.  See [docs/SERVING.md] for the full frame tables. *)

val version : int
(** Current protocol version (1).  A [Hello] carrying any other version
    is answered with a connection-level [Error] and the peer closed. *)

val max_frame : int
(** Hard ceiling on one frame's payload (64 MiB).  An incoming length
    prefix above it is a protocol error — the frame is never allocated. *)

(** {2 Capabilities}

    A bitmask.  The client requests a set in [Hello]; [Welcome] answers
    with the intersection the server actually grants, and using a request
    outside the granted set is an [Error] with code {!err_proto}. *)

val cap_submit : int
val cap_poll : int
val cap_stats : int

val cap_coalesce : int
(** Informational: the server coalesces identical in-flight compiles. *)

val cap_faults : int
(** Submissions may carry a fault-injection spec. *)

val cap_shutdown : int
val cap_all : int

val cap_names : int -> string list
(** Decode a mask into names, for logs and [--describe]. *)

(** {2 Error codes} *)

val err_proto : string
(** Framing/tag/version/capability violation. *)

val err_parse : string
(** The submitted program (or its fault spec) failed to parse. *)

val err_quota_inflight : string
val err_quota_cells : string
val err_quota_budget : string
val err_too_large : string

val err_certification : string
(** [Jit.Certification_failed]. *)

val err_fault : string
(** An injected fault escaped the solve. *)

val err_guard : string
(** NaN/Inf tripped the post-solve guard scan. *)

val err_internal : string

val err_fatal : string
(** The solve raised what no boundary absorbs ([Out_of_memory],
    [Stack_overflow], [Assert_failure]); the executor survives it. *)

(** {2 Messages} *)

type submit = {
  program : string;  (** corpus-format [.sfl] text ([Sf_fuzz.Corpus]) *)
  backend : string;  (** [""] = server default *)
  workers : int;  (** [0] = server default *)
  reps : int;  (** consecutive applications of the group, [>= 1] *)
  fault : string;  (** fault spec armed for this request; [""] = none *)
}

type request =
  | Hello of { version : int; tenant : string; caps : int }
  | Submit of submit
  | Poll of { ticket : int }
  | Stats
  | Shutdown

type grid = { gname : string; gshape : int list; gdata : float array }

type reply =
  | Welcome of { version : int; caps : int; server : string }
  | Accepted of { ticket : int }
  | Busy of { queue_depth : int }
  | Rejected of { ticket : int; code : string; message : string }
      (** [ticket = 0] marks a connection-level error (no request
          admitted); a nonzero ticket reports the failure of that
          admitted request. *)
  | Pending of { ticket : int; running : bool }
  | Result of { ticket : int; elapsed_us : float; grids : grid list }
  | Stats_reply of { json : string }
  | Bye

(** {2 Encoding}

    [encode_*] produce a complete frame (length prefix included);
    [decode_*] consume exactly one such frame.  The golden tests pin the
    hex of both directions. *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_reply : reply -> string
val decode_reply : string -> (reply, string) result

val encode_result :
  ticket:int -> elapsed_us:float -> (string * int list * Float.Array.t) list ->
  string
(** A RESULT frame straight from grid storage: each grid is its name,
    shape and cells (a [Mesh.data]).  The frame is sized first and
    written in one pass into one buffer; [encode_reply (Result _)] goes
    through the same writer, so for equal cells the bytes are equal. *)

(** {2 Frame I/O}

    The contract is a {e blocking} file descriptor, retrying on [EINTR].
    A descriptor left in non-blocking mode is tolerated on the write
    side: [write_frame] parks in [select] on [EAGAIN]/[EWOULDBLOCK] and
    retries, so a frame is always either written whole or fails with a
    real error — never torn by a spurious would-block.

    A short read mid-frame is an error (the peer died mid-message), a
    clean EOF before any byte is [None].  Where the EOF landed stays
    distinguishable: ["EOF inside length prefix"] (died between frames,
    mid-header) vs ["EOF inside frame payload"] (died mid-message) —
    the protocol fuzzer pins both paths. *)

val read_frame : Unix.file_descr -> (string option, string) result
(** One complete frame (prefix included), ready for [decode_*], read
    into a single buffer. *)

exception Closed
(** The peer hung up: a write hit [EPIPE]/[ECONNRESET].  Raised by
    [write_frame] and the [write_*] helpers below.  For the error to
    arrive as an exception rather than a process-killing [SIGPIPE], the
    signal must be ignored — {!Server.create} does this once for the
    process. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one complete frame; raises {!Closed} if the peer is gone. *)

val read_request : Unix.file_descr -> (request option, string) result
val read_reply : Unix.file_descr -> (reply option, string) result
val write_request : Unix.file_descr -> request -> unit
val write_reply : Unix.file_descr -> reply -> unit
