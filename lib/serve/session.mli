(** Per-tenant sessions: quotas, admission and usage accounting.

    A session is keyed by the tenant name a connection announces in
    [Hello]; reconnecting — or opening several connections — under the
    same name shares one session, so quotas bound the {e tenant}, not the
    socket.  Admission is checked at SUBMIT time against three limits:
    concurrent in-flight requests, cells per single request, and a
    cumulative lifetime cell budget.  Cells are iteration-shape points
    times applications — the same unit the cost models use.  The cells of
    a request's declared grids must also fit the per-request limit, so
    admission bounds what the request's executor allocates.

    All operations take the registry's internal lock; callers (connection
    threads, executors) need no external synchronisation. *)

type quota = {
  max_inflight : int;  (** concurrent admitted-but-unfinished requests *)
  max_cells : int;
      (** cells in one request: its iteration space times its
          repetitions, and the cells of its declared grids *)
  cell_budget : int;  (** lifetime cumulative cells; [max_int] = unmetered *)
}

val default_quota : quota
(** 8 in flight, 16M cells per request, unmetered lifetime budget. *)

type t

val tenant : t -> string
val quota : t -> quota

val find_or_create : quota:quota -> string -> t
(** The session for this tenant, creating it with [quota] on first
    contact (an existing session keeps its original quota). *)

val admit : t -> cells:int -> grid_cells:int -> (unit, string * string) result
(** Admit a request of [cells] cells (the iteration space times the
    repetitions) whose grids hold [grid_cells] cells; both must be within
    [max_cells].  On [Ok] the in-flight count and the budget (by [cells])
    are charged; on [Error (code, message)] nothing is, and [code]
    is the protocol quota code ([Protocol.err_quota_*]).  The rejection
    is also counted in the session's stats. *)

val finish : t -> unit
(** Release one in-flight slot (request completed or failed after
    admission).  The budget charge is kept — it is cumulative. *)

val note_completed : t -> unit
val note_errored : t -> unit

type stats = {
  s_tenant : string;
  s_inflight : int;
  s_submitted : int;  (** admitted requests *)
  s_completed : int;
  s_errored : int;  (** admitted, then failed in execution *)
  s_rejected : int;  (** refused at admission *)
  s_cells_used : int;
}

val stats : t -> stats
val all_stats : unit -> stats list
(** Every known session, sorted by tenant name. *)

val reset_all : unit -> unit
(** Drop every session (tests). *)
