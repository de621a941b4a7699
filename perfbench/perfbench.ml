(* perfbench: the repository's end-to-end and per-layer benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --smoke [--bench-json BENCHMARK.json]

   Workloads: mg_vcycle_64, serve_smooth_16, serve_fresh (see README.md
   beside this file for why each exists).  With --trace 0 the last line
   of stdout is a JSON object with the five end-to-end metrics; with
   --trace 1 it carries the per-layer metrics instead.  Run it from the
   root of a checkout, normally through run.sh, which builds it. *)

open Common

let workloads = [ "mg_vcycle_64"; "serve_smooth_16"; "serve_fresh" ]

type sizes = {
  mg_n : int;
  serve_n : int;
  fresh_per_s : int;  (** serve_fresh programs per requested second *)
  mg_setups : int;  (** set-ups per run; setup_s is their median *)
  serve_setups : int;  (** server spawns per run, the phase servers included *)
  serve_servers : int;  (** server processes the timed phase is split over *)
  layer : Layers.size;
}

let full =
  {
    mg_n = 64;
    serve_n = 16;
    fresh_per_s = 100;
    mg_setups = 5;
    serve_setups = 11;
    serve_servers = 4;
    layer =
      { Layers.n = 64; coarse_n = 4; serve_n = 16; hot_reqs = 100; fresh_reqs = 200; miss_programs = 200 };
  }

let tiny =
  {
    mg_n = 16;
    serve_n = 8;
    fresh_per_s = 40;
    mg_setups = 2;
    serve_setups = 3;
    serve_servers = 2;
    layer =
      { Layers.n = 16; coarse_n = 4; serve_n = 8; hot_reqs = 10; fresh_reqs = 10; miss_programs = 10 };
  }

type run = {
  setups : float array;
  phases : phase list;  (** one untraced; or untraced then traced *)
  rss_kb : int;
  hit_ratio : float;  (** JIT cache hits / lookups in the traced phase *)
  notes : string list;
}

let split_seconds ~traced seconds = if traced then [ (false, seconds /. 2.); (true, seconds /. 2.) ] else [ (false, seconds) ]

(* ------------------------------------------------------------------ mg *)

(* The timed phase is split into [mg_setups] sub-phases, each on a solver
   built by its own timed set-up: set up, run a share of the seconds, set
   up again, and so on.  A solver's arrays land at different addresses
   each time it is built: four solvers built in one process and run in
   turn had median V-cycle times from 113 to 133 ms, so a phase on one
   solver measures where its arrays happen to sit.  Spreading the ops
   over several solvers and through the run averages that out. *)
let run_mg ~sz ~seed ~seconds ~traced =
  let k = sz.mg_setups in
  let halves = split_seconds ~traced seconds in
  let setups = Array.make k 0. and parts = Array.make (List.length halves) [] in
  let hits = ref 0 and lookups = ref 0 and first_u = ref None in
  for i = 0 to k - 1 do
    let s, dt = Mg_work.setup ~n:sz.mg_n ~seed in
    setups.(i) <- dt;
    List.iteri
      (fun h (tr, secs) ->
        Spans.on := tr;
        let h0, m0 = Sf_backends.Jit.cache_stats () in
        let p, u = Mg_work.run_phase s ~seconds:(secs /. float_of_int k) in
        let h1, m1 = Sf_backends.Jit.cache_stats () in
        Spans.on := false;
        if tr then begin
          hits := !hits + (h1 - h0);
          lookups := !lookups + (h1 - h0) + (m1 - m0)
        end;
        if !first_u = None then first_u := u;
        parts.(h) <- p :: parts.(h))
      halves
  done;
  Spans.on := traced;
  let phases = Array.to_list (Array.map (fun ps -> merge_phases (List.rev ps)) parts) in
  let rss_kb = status_kb "VmHWM" in
  let diff =
    match !first_u with
    | Some u -> Mg_work.baseline_diff ~n:sz.mg_n ~seed u
    | None -> Float.nan
  in
  let phases =
    if diff <= Mg_work.baseline_tol then phases
    else begin
      Printf.eprintf "mg: max |u - u_hand| = %g (limit %g)\n%!" diff Mg_work.baseline_tol;
      match phases with
      | p :: rest -> { p with failed = p.failed + Mg_work.cycles_per_solve } :: rest
      | [] -> []
    end
  in
  {
    setups;
    phases;
    rss_kb;
    hit_ratio = float_of_int !hits /. float_of_int (max 1 !lookups);
    notes =
      [
        Printf.sprintf "%d solvers, each set up (timed) and then run for 1/%d of the phase" k k;
        Printf.sprintf "check: max |u - u_hand| after the first solve = %.3g (limit %g)" diff Mg_work.baseline_tol;
      ];
  }

(* --------------------------------------------------------------- serve *)

(* The timed phase is split evenly over [serve_servers] server processes
   run one after another: each sfserved process settles into its own
   latency level (±5 % between processes at equal load), and pooling
   several per run averages that out. *)
let run_serve ~fresh ~sz ~seed ~seconds ~traced ~sfserved ?fault_at ?perturb () =
  let module S = Serve_work in
  let halves = split_seconds ~traced seconds in
  let nh = List.length halves and servers = sz.serve_servers in
  let per_segment =
    max 1 (int_of_float (float_of_int sz.fresh_per_s *. seconds) / (servers * nh))
  in
  (* program 0 is the set-up request; fresh ops take disjoint slices of
     the rest, one per (server, half) segment *)
  let programs =
    if fresh then S.fresh_programs ~seed ~stream:0 ~count:(1 + (per_segment * servers * nh))
    else [| Sf_fuzz.Corpus.to_string (S.smoother_spec ~n:sz.serve_n ~seed) |]
  in
  let setups = ref [] in
  let spawn () =
    let t0 = now () in
    let srv = S.start ~sfserved in
    (match Sf_serve.Client.solve (List.hd srv.S.clients) (S.submit_of programs.(0)) with
    | Ok (Sf_serve.Client.Solved _) -> ()
    | _ -> failwith "perfbench: the set-up request failed");
    setups := (now () -. t0) :: !setups;
    srv
  in
  for _ = 1 to sz.serve_setups - servers do
    S.stop (spawn ())
  done;
  (* the smoother's one reference serves every server; fresh programs get
     theirs server by server, before that server is spawned *)
  let hot_refs = if fresh then None else Some (S.references ?perturb ~programs ~lo:0 ~hi:1 ()) in
  let seq = Atomic.make 0 in
  let ops = Array.make nh [] and walls = Array.make nh 0. and rss = ref [] in
  let hits = ref 0. and lookups = ref 0. in
  for i = 0 to servers - 1 do
    let first = 1 + (i * nh * per_segment) in
    let refs =
      match hot_refs with
      | Some r -> r
      | None -> S.references ?perturb ~programs ~lo:first ~hi:(first + (nh * per_segment)) ()
    in
    let srv = spawn () in
    let jit_stats () =
      let j = S.stats_json (List.hd srv.S.clients) in
      (S.json_num j [ "jit"; "hits" ], S.json_num j [ "jit"; "misses" ])
    in
    List.iteri
      (fun h (tr, secs) ->
        let next =
          if not fresh then S.repeat_until ~seconds:(secs /. float_of_int servers)
          else
            let lo = first + (h * per_segment) in
            S.each_once ~lo ~hi:(lo + per_segment)
        in
        let h0, m0 = jit_stats () in
        Spans.on := tr;
        let think_s = if fresh then 0. else S.think_max_s in
        let seg, wall =
          S.run_closed_loop ~traced:tr ?fault_at ~think_s ~seq ~seed:((seed * 64) + i) srv
            ~programs ~refs ~next
        in
        Spans.on := false;
        let h1, m1 = jit_stats () in
        if tr then begin
          hits := !hits +. (h1 -. h0);
          lookups := !lookups +. (h1 -. h0) +. (m1 -. m0)
        end;
        ops.(h) <- ops.(h) @ seg;
        walls.(h) <- walls.(h) +. wall)
      halves;
    rss := float_of_int (status_kb ~pid:srv.S.pid "VmHWM") :: !rss;
    S.stop srv
  done;
  Spans.on := traced;
  let phases =
    Array.to_list
      (Array.mapi
         (fun h seg ->
           {
             lat = Array.of_list (List.map (fun o -> o.S.lat) seg);
             wall = walls.(h);
             attempted = List.length seg;
             failed = S.count_wrong seg;
           })
         ops)
  in
  let all = Array.to_list ops |> List.concat in
  let sum f = List.fold_left (fun a o -> a +. f o) 0. all in
  {
    setups = Array.of_list !setups;
    phases;
    rss_kb = int_of_float (median (Array.of_list !rss));
    hit_ratio = !hits /. Float.max 1. !lookups;
    notes =
      [
        Printf.sprintf "%d server processes; peak_rss_mb is the median of their VmHWM" servers;
        Printf.sprintf
          "check: %d replies compared bitwise with %d references computed before the ops; the \
           comparison took %.1f us per op, %.3f %% of op latency"
          (List.length all)
          (List.length (List.sort_uniq compare (List.map (fun o -> o.S.prog) all)))
          (1e6 *. sum (fun o -> o.S.check_s) /. float_of_int (max 1 (List.length all)))
          (100. *. sum (fun o -> o.S.check_s) /. Float.max 1e-9 (sum (fun o -> o.S.lat)));
      ];
  }

let run_workload ~sz ~seed ~seconds ~traced ~sfserved name =
  match name with
  | "mg_vcycle_64" -> run_mg ~sz ~seed ~seconds ~traced
  | "serve_smooth_16" -> run_serve ~fresh:false ~sz ~seed ~seconds ~traced ~sfserved ()
  | "serve_fresh" -> run_serve ~fresh:true ~sz ~seed ~seconds ~traced ~sfserved ()
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------- metrics *)

let end_to_end r p =
  let n = Array.length p.lat and completed = p.attempted - p.failed in
  let tail, pct = tail p.lat in
  [
    metric ~note:(Printf.sprintf "median of %d set-ups" (Array.length r.setups)) "setup_s" "s" (median r.setups);
    metric ~note:(Printf.sprintf "n=%d" n) "op_p50_ms" "ms" (1e3 *. median p.lat);
    metric
      ~note:(Printf.sprintf "p%.2f, 10 samples beyond it, n=%d" pct n)
      "op_tail_ms" "ms" (1e3 *. tail);
    metric
      ~note:(Printf.sprintf "%d ops completed (of %d) in %.2f s" completed p.attempted p.wall)
      "ops_per_s" "1/s"
      (float_of_int completed /. p.wall);
    metric ~note:"VmHWM" "peak_rss_mb" "MB" (float_of_int r.rss_kb /. 1024.);
  ]

let header ~gbs =
  let nproc =
    In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"processor")
    |> List.length
  in
  Printf.printf "perfbench  git %s  nproc %d  pinned to cpu %s  ocaml %s  stream.gbs %.3f\n" (git_rev ())
    nproc (status_field "Cpus_allowed_list") Sys.ocaml_version gbs

type report = { correct : bool; attempted : int; failed : int; metrics : metric list }

let bench ~sz ~workload ~seed ~seconds ~traced ~sfserved =
  let r = run_workload ~sz ~seed ~seconds ~traced ~sfserved workload in
  let gbs = Sf_roofline.Stream.measure () in
  header ~gbs;
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" workload seed seconds (Bool.to_int traced);
  List.iter (Printf.printf "%s\n") r.notes;
  let attempted = List.fold_left (fun a (p : phase) -> a + p.attempted) 0 r.phases in
  let failed = List.fold_left (fun a (p : phase) -> a + p.failed) 0 r.phases in
  let metrics =
    if not traced then end_to_end r (List.hd r.phases)
    else begin
      let untraced, traced_p = (List.nth r.phases 0, List.nth r.phases 1) in
      Printf.printf "end to end, untraced half:\n";
      print_metrics (end_to_end r untraced);
      Printf.printf "end to end, traced half:\n";
      print_metrics (end_to_end r traced_p);
      let layers = Layers.run ~size:sz.layer ~seed ~sfserved ~gbs in
      Spans.on := false;
      ensure_out_dir ();
      let path = Printf.sprintf "%s/trace-%s-%d.json" out_dir workload seed in
      Spans.write_chrome path;
      Printf.printf "spans: %d recorded, %d dropped, written to %s\n" (Spans.count ()) !Spans.dropped path;
      layers
      @ [
          metric ~note:"JIT cache hits / lookups over the traced half" "jit.hit_ratio" "ratio" r.hit_ratio;
          metric ~note:"traced minus untraced op_p50_ms" "trace.overhead_ms" "ms"
            (1e3 *. (median traced_p.lat -. median untraced.lat));
        ]
    end
  in
  Printf.printf "%s:\n" (if traced then "per layer" else "end to end");
  print_metrics metrics;
  Printf.printf "ops: %d attempted, %d failed\n" attempted failed;
  { correct = failed = 0; attempted; failed; metrics }

(* --------------------------------------------------------------- smoke *)

(* The smoke test: every workload at tiny size, untraced and traced; the
   printed names and units must be exactly those BENCHMARK.json declares
   (mg levels the tiny hierarchy lacks excepted), outputs must check, and
   two planted faults must each count as failed ops. *)
let smoke ~sfserved ~bench_json =
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "smoke: %-60s %s\n%!" what (if ok then "ok" else "FAILED");
    if not ok then incr failures
  in
  let declared key =
    let j =
      match Json.of_string (In_channel.with_open_text bench_json In_channel.input_all) with
      | Ok j -> j
      | Error e -> failwith (bench_json ^ ": " ^ e)
    in
    match Json.member key j with
    | Some (Json.Arr l) ->
        List.map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.Str n), Some (Json.Str u) -> (n, u)
            | Some (Json.Str n), None -> (n, "")
            | _ -> failwith (bench_json ^ ": malformed " ^ key))
          l
    | _ -> failwith (bench_json ^ ": no " ^ key)
  in
  expect "BENCHMARK.json names the three workloads"
    (List.map fst (declared "workloads") = workloads);
  let tiny_levels = List.length (Layers.interiors tiny.layer.Layers.n) in
  let in_tiny (name, _) =
    match Scanf.sscanf_opt name "mg.%[a-z].l%[0-9]_ms%!" (fun _ i -> i) with
    | Some i -> int_of_string i < tiny_levels
    | None -> true
  in
  let same got want =
    let show l = String.concat " " (List.map (fun (n, u) -> n ^ "[" ^ u ^ "]") l) in
    let missing = List.filter (fun m -> not (List.mem m got)) want
    and extra = List.filter (fun m -> not (List.mem m want)) got in
    if missing <> [] then Printf.printf "smoke: missing %s\n" (show missing);
    if extra <> [] then Printf.printf "smoke: unexpected %s\n" (show extra);
    missing = [] && extra = [] && List.length got = List.length want
  in
  let printed rep = List.map (fun m -> (m.name, m.unit_)) rep.metrics in
  let run ?(traced = false) w = bench ~sz:tiny ~workload:w ~seed:1 ~seconds:0.6 ~traced ~sfserved in
  List.iter
    (fun w ->
      let rep = run w in
      expect (w ^ ": end-to-end metrics and units") (same (printed rep) (declared "end_to_end"));
      expect (w ^ ": outputs check, no failed ops") (rep.correct && rep.attempted > 0);
      let rep = run ~traced:true w in
      expect (w ^ ": per-layer metrics and units")
        (same (printed rep) (List.filter in_tiny (declared "per_layer")));
      expect (w ^ ": traced outputs check") (rep.correct && rep.attempted > 0))
    workloads;
  let serve ?fault_at ?perturb () =
    let r = run_serve ~fresh:false ~sz:tiny ~seed:1 ~seconds:0.6 ~traced:false ~sfserved ?fault_at ?perturb () in
    let p = List.hd r.phases in
    (p.attempted, p.failed)
  in
  let attempted, failed = serve ~fault_at:(fun k -> k = 3) () in
  expect (Printf.sprintf "kernel:raise SUBMIT counts as failed (%d/%d)" failed attempted) (failed = 1);
  let attempted, failed = serve ~perturb:true () in
  expect (Printf.sprintf "perturbed reference fails every op (%d/%d)" failed attempted)
    (attempted > 0 && failed = attempted);
  if !failures = 0 then print_endline "smoke: all checks passed"
  else (Printf.printf "smoke: %d check(s) failed\n" !failures; exit 1)

(* ---------------------------------------------------------------- main *)

let main () =
  pin_environment ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let sfserved = ref "_build/default/bin/sfserved.exe" and smoke_mode = ref false in
  let bench_json = ref "BENCHMARK.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--sfserved", Arg.Set_string sfserved, "PATH the server binary");
      ("--smoke", Arg.Set smoke_mode, " run the self-test at tiny size");
      ("--bench-json", Arg.Set_string bench_json, "PATH declarations the smoke test checks against");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists !sfserved) then begin
    prerr_endline ("perfbench: no server binary at " ^ !sfserved);
    exit 2
  end;
  if !smoke_mode then smoke ~sfserved:!sfserved ~bench_json:!bench_json
  else begin
    watchdog 170.;
    if not (List.mem !workload workloads) || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "perfbench: need --workload NAME --seed N --seconds S (> 0) --trace 0|1";
      exit 2
    end;
    let rep =
      bench ~sz:full ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
        ~sfserved:!sfserved
    in
    print_endline (result_line ~correct:rep.correct ~attempted:rep.attempted ~failed:rep.failed rep.metrics)
  end

let () =
  match main () with
  | () -> ()
  | exception e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      kill_children ();
      exit 1
