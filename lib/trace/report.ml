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

(* The one rendering rule: zero-valued counters are omitted, so a clean
   profile never grows resilience, tuning or native segments. *)
let counters_line () =
  match List.filter (fun (_, v) -> v <> 0) (Metrics.snapshot ()).counters with
  | [] -> "none"
  | cs ->
      String.concat " "
        (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)

let print_summary ?machine () =
  print_string (summary_table ?machine ());
  print_newline ();
  Printf.printf "counters: %s\n" (counters_line ());
  let d = Trace.dropped () in
  if d > 0 then
    Printf.printf "warning: %d span(s) dropped (event buffer full)\n" d
