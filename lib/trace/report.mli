(** Human sinks for the trace substrate.

    The summary table is the paper's profiling methodology applied to the
    whole runtime: per span (kernel invocations first) it reports call
    count, total time and — for kernel spans, which carry analytic
    cells/flops/bytes annotations — arithmetic intensity, achieved
    bandwidth, and the achieved fraction of the STREAM-predicted roofline
    peak.  This replaces the ad-hoc [Hashtbl] breakdown [Mg.profile] used
    to print. *)

val summary_table : ?machine:Sf_roofline.Machine.t -> unit -> string
(** Render the aggregated spans ({!Trace.summary}) as a fixed-width
    table.  The roofline columns use [machine]'s bandwidth when given,
    else the bandwidth declared via {!Trace.set_bandwidth_gbs}; when
    neither is available the [%peak] column is left blank. *)

val print_summary : ?machine:Sf_roofline.Machine.t -> unit -> unit
(** {!summary_table} to stdout, followed by the counter line and, when
    events were discarded, a dropped-span warning. *)

val counters_line : unit -> string
(** One-line rendering of the {!Metrics} snapshot's counters as
    [name=value] pairs in name order, omitting every zero-valued counter
    (["none"] when all are zero). *)
