(** The process-global metrics registry: counters, gauges and series.

    Every counted event of the runtime lives here exactly once, under a
    dotted [<module>.<event>] name ([pool.chunks], [jit.hits],
    [supervisor.failovers], [native.promotions], ...).  The same
    {!snapshot} is rendered by every sink: the [--profile] counters line
    ({!Report.counters_line}), the final [sf_counters] event of a Chrome
    trace ({!Trace.to_chrome_json}) and sfserved STATS.

    - A {!counter} is one [int Atomic.t], fetched once by name (typically
      at module initialisation) and bumped with [Atomic.incr] /
      [Atomic.fetch_and_add].  Whether a site counts always or only under
      {!Trace.on} is the site's choice; the registry never checks.
    - A {!gauge} is a current integer level with its high-water mark.
    - A {!series} is a bounded reservoir of float samples (typically
      durations in µs): observation is O(1) into a ring of the last
      [capacity] samples, and percentiles are computed on demand over that
      window — cheap enough for a server to keep forever.

    Registration, gauges and series are mutex-protected; counter updates
    are lock-free.  Everything is safe from any domain or thread. *)

val counter : string -> int Atomic.t
(** The counter registered under [name], created at 0 on first use.
    Later calls return the same atomic. *)

type gauge

val gauge : string -> gauge
(** The gauge registered under [name], created at level 0 on first use. *)

val gauge_set : gauge -> int -> unit
(** Set the level, raising the high-water mark if exceeded. *)

type series

val series : ?capacity:int -> string -> series
(** The series registered under [name], creating it on first use
    ([capacity] — default 4096, at least 16 — only applies then). *)

val observe : series -> float -> unit
(** Append one sample (O(1); evicts the oldest once the window is full). *)

type summary = {
  sname : string;
  n : int;  (** lifetime observation count (not capped by the window) *)
  p50 : float;  (** percentiles over the current window; [nan] when empty *)
  p90 : float;
  p99 : float;
  smax : float;  (** lifetime max; [nan] when empty *)
  smean : float;  (** window mean; [nan] when empty *)
}

type reading = {
  level : int;
  hwm : int;  (** high-water mark since creation or the last {!reset} *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * reading) list;
  series : summary list;
}
(** Every registered metric, each kind sorted by name. *)

val snapshot : unit -> snapshot

val counters_json : snapshot -> Json.t
(** The snapshot's counters as one JSON object, [name: value] — the
    rendering shared by the Chrome counter event and STATS. *)

val reset : unit -> unit
(** Zero every counter and series, and drop every gauge's high-water mark
    to its current level (a gauge is a level, not a count: the pool's
    [pool.live_domains] survives).  Handles held by callers stay valid and
    registration is kept. *)
