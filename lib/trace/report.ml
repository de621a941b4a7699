open Sf_util

let fmt_count v =
  if v >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let fmt_secs us =
  let s = us /. 1e6 in
  if s < 1e-4 then Printf.sprintf "%.1f us" us
  else if s < 1. then Printf.sprintf "%.4f s" s
  else Printf.sprintf "%.3f s" s

let summary_table ?machine () =
  let bw =
    match machine with
    | Some m -> m.Sf_roofline.Machine.bandwidth_gbs
    | None -> Trace.bandwidth_gbs ()
  in
  let t =
    Tabular.create
      ~headers:
        [
          "span"; "kind"; "calls"; "total"; "cells"; "flops"; "bytes";
          "AI"; "GB/s"; "%peak";
        ]
  in
  List.iter
    (fun (a : Trace.agg) ->
      let secs = a.Trace.total_us /. 1e6 in
      let joined = a.Trace.abytes > 0. && secs > 0. in
      let ai =
        if joined && a.Trace.aflops > 0. then
          Printf.sprintf "%.3f" (a.Trace.aflops /. a.Trace.abytes)
        else ""
      in
      let gbs =
        if joined then Printf.sprintf "%.2f" (a.Trace.abytes /. secs /. 1e9)
        else ""
      in
      let peak =
        if joined && bw > 0. then
          Printf.sprintf "%.1f%%"
            (100. *. (a.Trace.abytes /. (bw *. 1e9)) /. secs)
        else ""
      in
      Tabular.add_row t
        [
          a.Trace.aname;
          Trace.kind_name a.Trace.akind;
          string_of_int a.Trace.calls;
          fmt_secs a.Trace.total_us;
          (if a.Trace.acells > 0. then fmt_count a.Trace.acells else "");
          (if a.Trace.aflops > 0. then fmt_count a.Trace.aflops else "");
          (if a.Trace.abytes > 0. then fmt_count a.Trace.abytes else "");
          ai;
          gbs;
          peak;
        ])
    (Trace.summary ());
  Tabular.render t

let counters_line () =
  let c = Trace.counters () in
  let base =
    Printf.sprintf
      "%d cell(s) updated; %d chunk(s) dispatched (%d stolen), %d inline \
       fallback(s); jit cache %d hit(s) / %d miss(es)"
      c.Trace.cells_updated c.Trace.chunks_dispatched c.Trace.chunks_stolen
      c.Trace.inline_fallbacks c.Trace.cache_hits c.Trace.cache_misses
  in
  (* The resilience line only appears when something resilience-related
     actually happened — clean profiles stay byte-identical to before. *)
  if
    c.Trace.faults_injected + c.Trace.retries + c.Trace.failovers
    + c.Trace.rollbacks + c.Trace.guard_trips + c.Trace.tasks_skipped
    + c.Trace.rank_recoveries
    > 0
  then
    base
    ^ Printf.sprintf
        "; resilience: %d fault(s) injected, %d retry(ies), %d failover(s), \
         %d rollback(s), %d guard trip(s), %d task(s) skipped, %d rank \
         recovery(ies)"
        c.Trace.faults_injected c.Trace.retries c.Trace.failovers
        c.Trace.rollbacks c.Trace.guard_trips c.Trace.tasks_skipped
        c.Trace.rank_recoveries
  else base

let counters_line () =
  let c = Trace.counters () in
  let base = counters_line () in
  (* like the resilience segment: only sessions that consulted the tuning
     DB grow the extra segment *)
  if c.Trace.tune_db_hits + c.Trace.tune_db_misses > 0 then
    base
    ^ Printf.sprintf "; tuning db %d hit(s) / %d miss(es)"
        c.Trace.tune_db_hits c.Trace.tune_db_misses
  else base

let counters_line () =
  let c = Trace.counters () in
  let base = counters_line () in
  (* only pipelined-Spmd sessions grow the channel segment *)
  if c.Trace.channel_sends + c.Trace.channel_stalls > 0 then
    base
    ^ Printf.sprintf "; pipeline %d plane send(s) / %d stall(s)"
        c.Trace.channel_sends c.Trace.channel_stalls
  else base

let counters_line () =
  let c = Trace.counters () in
  let base = counters_line () in
  (* only sessions that met a polynomial stencil grow the native segment *)
  if c.Trace.native_structures + c.Trace.native_failures > 0 then
    base
    ^ Printf.sprintf
        "; native %d structure(s), %d promotion(s), %d compile(s) (%d ms), \
         %d disk hit(s), %d failure(s)"
        c.Trace.native_structures c.Trace.native_promotions
        c.Trace.native_compiles c.Trace.native_compile_ms
        c.Trace.native_disk_hits c.Trace.native_failures
  else base

let print_summary ?machine () =
  print_string (summary_table ?machine ());
  print_newline ();
  Printf.printf "counters: %s\n" (counters_line ());
  let d = Trace.dropped () in
  if d > 0 then
    Printf.printf "warning: %d span(s) dropped (event buffer full)\n" d
