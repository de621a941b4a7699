(* The per-layer probes of the traced run.  Each metric is timed around a
   call into one layer's public functions, from this file; nothing inside
   the program is switched on.  The probes are the same on every
   workload, so a per-layer metric means the same thing in every traced
   run. *)

open Common
open Sf_hpgmg
module Jit = Sf_backends.Jit
module Kernel = Sf_backends.Kernel
module Costing = Sf_backends.Costing
module Pool = Sf_backends.Pool
module Group = Snowflake.Group
module Mesh = Sf_mesh.Mesh
module P = Sf_serve.Protocol
module Client = Sf_serve.Client
module Gen = Sf_fuzz.Gen
module Corpus = Sf_fuzz.Corpus

type size = {
  n : int;  (** multigrid / operator interior size *)
  coarse_n : int;  (** the level [exec.coarse_call_us] runs on *)
  serve_n : int;  (** smoother interior size for the serve probes *)
  hot_reqs : int;
  fresh_reqs : int;
  miss_programs : int;
}

let us s = s *. 1e6
let ms s = s *. 1e3
let n_note a = Printf.sprintf "n=%d" (Array.length a)

(* A level ready for one-operator timing (the fig7 preparation). *)
let prepared_level n =
  let level = Level.create ~n in
  Level.set_beta level Problem.beta_smooth;
  Baseline.init_dinv level;
  Level.fill_interior (Level.u level) level (fun x y z -> sin (7. *. x) +. cos (5. *. (y +. z)));
  Level.fill_interior (Level.f level) level Problem.rhs_sine;
  level

(* Mg's residual group, built as mg.ml builds it. *)
let residual_group =
  Group.make ~label:"residual" (Operators.boundaries ~grid:"u" @ [ Operators.residual_vc ])

(* The Fig. 7 operators: Snowflake group and its hand-written twin. *)
let operators =
  [
    ("gsrb", Operators.gsrb_smooth, Baseline.smooth_gsrb);
    ("residual", residual_group, Baseline.residual_vc);
    ( "cc7",
      Group.make ~label:"cc_7pt"
        (Operators.boundaries ~grid:"u" @ [ Operators.laplacian_7pt ~out:"res" ~input:"u" ]),
      fun l -> Baseline.laplacian_cc l ~out:(Level.res l) ~input:(Level.u l) );
    ("jacobi", Operators.jacobi_smooth, Baseline.jacobi_cc);
  ]

let mg_backend = Mg.default_config.Mg.backend
let mg_jit = Mg.default_config.Mg.jit

let compile_for level group =
  Jit.compile ~config:mg_jit mg_backend ~shape:level.Level.shape group

let probe name f = Spans.span ("probe." ^ name) (fun _ -> f ())

(* ------------------------------------------------------------ exec, hand *)

let exec_and_hand ~size ~gbs =
  let cells = float_of_int (size.n * size.n * size.n) in
  let per_op =
    List.concat_map
      (fun (op, group, hand) ->
        let level = prepared_level size.n in
        let k = compile_for level group in
        let run () = k.Kernel.run ~params:(Level.params level) level.Level.grids in
        run ();
        let t_exec = probe ("exec." ^ op) (fun () -> sample ~min_reps:7 ~min_s:0.2 run) in
        hand level;
        let t_hand = probe ("hand." ^ op) (fun () -> sample ~min_reps:7 ~min_s:0.2 (fun () -> hand level)) in
        let rate_exec = cells /. median t_exec and rate_hand = cells /. median t_hand in
        let bytes = float_of_int (Costing.of_group ~shape:level.Level.shape group).Costing.bytes in
        [
          metric ~note:(n_note t_exec) (Printf.sprintf "exec.%s.cells_per_s" op) "1/s" rate_exec;
          metric ~note:"base: hand cells/s"
            (Printf.sprintf "exec.%s.vs_hand" op) "ratio" (rate_exec /. rate_hand);
          metric ~note:"computed: Costing.of_group bytes (unfused) / time / stream.gbs"
            (Printf.sprintf "exec.%s.roofline_pct" op) "%"
            (100. *. bytes /. median t_exec /. (gbs *. 1e9));
          metric ~note:(n_note t_hand) (Printf.sprintf "hand.%s.cells_per_s" op) "1/s" rate_hand;
        ])
      operators
  in
  let coarse = prepared_level size.coarse_n in
  let k = compile_for coarse Operators.gsrb_smooth in
  let run () = k.Kernel.run ~params:(Level.params coarse) coarse.Level.grids in
  run ();
  let t = probe "exec.coarse_call" (fun () -> sample_batched ~per_batch:200 run) in
  per_op
  @ [
      metric
        ~note:(Printf.sprintf "GSRB on %d^3, %d batches of 200" size.coarse_n (Array.length t))
        "exec.coarse_call_us" "us" (us (median t));
    ]

(* --------------------------------------------------------------------- mg *)

let mg ~size ~seed =
  let s = Mg_work.make_solver ~n:size.n ~seed in
  let cfg = s.Mg.config in
  let u = Level.u (Mg.finest s) in
  Mesh.fill u 0.;
  let r0 = Mg.residual_norm s in
  let cycles =
    probe "mg.solve" (fun () ->
        Array.init Mg_work.cycles_per_solve (fun _ -> snd (time (fun () -> Mg.vcycle s))))
  in
  let r10 = Mg.residual_norm s in
  (* the first cycle also pays first runs; the warm V-cycle is the rest *)
  let t_cycle = median (Array.sub cycles 1 (Array.length cycles - 1)) in
  let nlev = Array.length s.Mg.levels in
  let per_level name f =
    Array.init nlev (fun i ->
        probe (Printf.sprintf "mg.%s.l%d" name i) (fun () ->
            median (sample ~min_reps:9 ~min_s:0.3 (fun () -> f s i))))
  in
  let smooth = per_level "smooth" Mg.smooth and resid = per_level "residual" Mg.compute_residual in
  (* per-cycle call counts: 2·smooths smooths and one residual on every
     level above the bottom, coarse_iters smooths at the bottom *)
  let covered = ref 0. in
  for i = 0 to nlev - 1 do
    if i = nlev - 1 then covered := !covered +. (float_of_int cfg.Mg.coarse_iters *. smooth.(i))
    else covered := !covered +. (float_of_int (2 * cfg.Mg.smooths) *. smooth.(i)) +. resid.(i)
  done;
  let h = Baseline.create ~n:size.n () in
  Problem.setup_variable ~seed (Baseline.finest h);
  Baseline.set_beta h Problem.beta_smooth;
  Baseline.vcycle h;
  let t_hand = probe "hand.vcycle" (fun () -> sample ~min_reps:5 ~min_s:0.3 (fun () -> Baseline.vcycle h)) in
  let dof = float_of_int (Mg.dof s) in
  List.init nlev (fun i ->
      metric ~note:(Printf.sprintf "%d^3" s.Mg.levels.(i).Level.n)
        (Printf.sprintf "mg.smooth.l%d_ms" i) "ms" (ms smooth.(i)))
  @ List.init nlev (fun i ->
        metric ~note:(Printf.sprintf "%d^3" s.Mg.levels.(i).Level.n)
          (Printf.sprintf "mg.residual.l%d_ms" i) "ms" (ms resid.(i)))
  @ [
      metric ~note:"share of the warm V-cycle not inside smooth/residual calls"
        "mg.unaccounted_pct" "%" (100. *. (1. -. (!covered /. t_cycle)));
      metric ~note:"|r10|/|r0| from u=0" "mg.residual_reduction" "ratio" (r10 /. r0);
      metric ~note:(Printf.sprintf "median of %d warm V-cycles" (Array.length cycles - 1))
        "mg.dof_per_s" "1/s" (dof /. t_cycle);
      metric ~note:"base: hand V-cycle DOF/s" "mg.vs_hand" "ratio" (median t_hand /. t_cycle);
      metric ~note:(n_note t_hand) "hand.vcycle_ms" "ms" (ms (median t_hand));
    ]

(* -------------------------------------------------------------------- jit *)

(* Interior sizes of the multigrid hierarchy on an n^3 problem. *)
let rec interiors n =
  if n = Mg.default_config.Mg.coarsest_n then [ n ] else n :: interiors (n / 2)

(* Every (group, shape) pair [Mg] compiles, built as mg.ml builds them. *)
let mg_kernels ~n =
  let dinv = Group.make ~label:"dinv" [ Operators.dinv_setup ] in
  let restrict = Group.make ~label:"restrict" [ Operators.restriction ] in
  let interp = Group.make ~label:"interp_pc" Operators.interpolation in
  List.concat
    (List.mapi
       (fun i m ->
         let shape = [| m + 2; m + 2; m + 2 |] in
         [ (Operators.gsrb_smooth, shape); (residual_group, shape); (dinv, shape) ]
         @ if i > 0 then [ (restrict, shape); (interp, shape) ] else [])
       (interiors n))

let jit ~size ~seed =
  let pairs = mg_kernels ~n:size.n in
  Jit.clear_cache ();
  let (), t_cold =
    time (fun () ->
        probe "jit.compile_cold" (fun () ->
            List.iter (fun (g, shape) -> ignore (Jit.compile ~config:mg_jit mg_backend ~shape g)) pairs))
  in
  let _, misses0 = Jit.cache_stats () in
  let s = Mg_work.make_solver ~n:size.n ~seed in
  let (), t_first = time (fun () -> probe "jit.first_run" (fun () -> Mg.vcycle s)) in
  let _, misses1 = Jit.cache_stats () in
  if misses1 <> misses0 then
    failwith
      (Printf.sprintf "perfbench: the cold-compile list misses %d of Mg's kernels" (misses1 - misses0));
  let g, shape = List.hd pairs in
  let t_hit =
    probe "jit.compile_hit" (fun () ->
        sample_batched ~per_batch:200 (fun () -> ignore (Jit.compile ~config:mg_jit mg_backend ~shape g)))
  in
  let fresh =
    Array.map Serve_work.parse
      (Serve_work.fresh_programs ~seed ~stream:9 ~count:size.miss_programs)
  in
  let t_miss =
    probe "jit.compile_miss" (fun () ->
        Array.map
          (fun (sp : Gen.spec) ->
            snd
              (time (fun () ->
                   Jit.compile ~config:Serve_work.serve_config Jit.Openmp ~shape:sp.Gen.shape
                     sp.Gen.group)))
          fresh)
  in
  [
    metric ~note:(Printf.sprintf "%d (group, shape) pairs" (List.length pairs))
      "jit.compile_cold_ms" "ms" (ms t_cold);
    metric ~note:"first V-cycle after the cold compile" "jit.first_run_ms" "ms" (ms t_first);
    metric ~note:(n_note t_hit ^ " batches of 200") "jit.compile_hit_us" "us" (us (median t_hit));
    metric ~note:(n_note t_miss ^ " generated programs") "jit.compile_miss_us" "us" (us (median t_miss));
  ]

(* ----------------------------------------------- corpus, gen, protocol *)

let corpus_gen_protocol ~size ~seed ~reply =
  let spec = Serve_work.smoother_spec ~n:size.serve_n ~seed in
  let text = Corpus.to_string spec in
  let t_parse =
    probe "corpus.parse" (fun () ->
        sample ~min_reps:20 ~min_s:0.1 (fun () -> ignore (Corpus.of_string ~label:"served" text)))
  in
  let t_build =
    probe "gen.build_grids" (fun () -> sample ~min_reps:20 ~min_s:0.1 (fun () -> ignore (Gen.build_grids spec)))
  in
  let frame = P.encode_reply reply in
  let mb = float_of_int (String.length frame) /. 1e6 in
  let t_enc =
    probe "protocol.encode_reply" (fun () -> sample ~min_reps:10 ~min_s:0.2 (fun () -> ignore (P.encode_reply reply)))
  in
  let t_dec =
    probe "protocol.decode_reply" (fun () ->
        sample ~min_reps:10 ~min_s:0.2 (fun () ->
            match P.decode_reply frame with
            | Ok _ -> ()
            | Error e -> failwith ("perfbench: captured RESULT does not decode: " ^ e)))
  in
  let req = P.Submit (Serve_work.submit_of text) in
  let t_req =
    probe "protocol.request_roundtrip" (fun () ->
        sample_batched ~per_batch:100 (fun () ->
            match P.decode_request (P.encode_request req) with
            | Ok _ -> ()
            | Error e -> failwith ("perfbench: SUBMIT does not round-trip: " ^ e)))
  in
  [
    metric ~note:(n_note t_parse) "corpus.parse_us" "us" (us (median t_parse));
    metric ~note:(n_note t_build) "gen.build_grids_us" "us" (us (median t_build));
    metric ~note:(Printf.sprintf "%s on a %.0f KB RESULT" (n_note t_enc) (mb *. 1e3))
      "protocol.encode_reply_mb_per_s" "MB/s" (mb /. median t_enc);
    metric ~note:(n_note t_dec) "protocol.decode_reply_mb_per_s" "MB/s" (mb /. median t_dec);
    metric ~note:(n_note t_req ^ " batches of 100") "protocol.request_roundtrip_us" "us" (us (median t_req));
  ]

(* ---------------------------------------------------- client and server *)

(* One sfserved child, one tenant: [hot_reqs] smoother requests through
   submit/poll, then [fresh_reqs] never-seen programs.  Returns the
   metrics and the last RESULT for the protocol probes. *)
let client_server ~size ~seed ~sfserved =
  let srv = Serve_work.start ~sfserved in
  let c = List.hd srv.Serve_work.clients in
  let hot = Corpus.to_string (Serve_work.smoother_spec ~n:size.serve_n ~seed) in
  let sub = Serve_work.submit_of hot in
  ignore (Client.solve c sub);
  let pr = Serve_work.new_probe () in
  let last = ref None in
  let lat =
    probe "client.hot" (fun () ->
        Array.init size.hot_reqs (fun _ ->
            Spans.span "op" (fun op ->
                let r, dt = time (fun () -> Serve_work.traced_solve ~probe:pr ~op c sub) in
                (match r with
                | Ok (Client.Solved { elapsed_us; grids }) ->
                    last := Some (P.Result { ticket = 1; elapsed_us; grids })
                | _ -> failwith "perfbench: a hot probe request failed");
                dt)))
  in
  let st = Serve_work.stats_json c in
  let req_p50 = Serve_work.series_p50 st "serve.request_us" in
  let solve_p50 = Serve_work.series_p50 st "serve.solve_us" in
  let hwm = Serve_work.json_num st [ "queue"; "hwm" ] in
  let fresh = Serve_work.fresh_programs ~seed ~stream:8 ~count:size.fresh_reqs in
  let rss0 = status_kb ~pid:srv.Serve_work.pid "VmRSS" in
  probe "client.fresh" (fun () ->
      Array.iter
        (fun text ->
          match Client.solve c (Serve_work.submit_of text) with
          | Ok (Client.Solved _) -> ()
          | _ -> failwith "perfbench: a fresh probe request failed")
        fresh);
  let rss1 = status_kb ~pid:srv.Serve_work.pid "VmRSS" in
  Serve_work.stop srv;
  let polls = Array.of_list (List.map float_of_int pr.Serve_work.polls) in
  let submits = Array.of_list pr.Serve_work.submit_s in
  let reply = match !last with Some r -> r | None -> failwith "perfbench: no hot reply" in
  ( [
      metric ~note:(n_note submits) "client.submit_us" "us" (us (median submits));
      metric ~note:(n_note polls) "client.polls_per_op" "count"
        (Array.fold_left ( +. ) 0. polls /. float_of_int (Array.length polls));
      metric ~note:"op p50 - server.request_p50_us" "client.overhead_us" "us" (us (median lat) -. req_p50);
      metric ~note:"STATS serve.request_us (admission to reply ready)" "server.request_p50_us" "us" req_p50;
      metric ~note:"STATS serve.solve_us (kernel run)" "server.solve_p50_us" "us" solve_p50;
      metric ~note:"STATS queue.hwm" "server.queue_depth_hwm" "count" hwm;
      metric ~note:(Printf.sprintf "VmRSS growth over %d fresh programs" size.fresh_reqs)
        "server.rss_kb_per_program" "KB" (float_of_int (rss1 - rss0) /. float_of_int size.fresh_reqs);
    ],
    reply )

(* ------------------------------------------------------------ pool, all *)

let pool () =
  let p = Pool.global () in
  let tasks = [| ignore; ignore |] in
  let t = probe "pool.dispatch" (fun () -> sample_batched ~per_batch:1000 (fun () -> Pool.run_tasks p tasks)) in
  [ metric ~note:(Printf.sprintf "2 empty tasks, workers=%d" (Pool.workers p)) "pool.dispatch_us" "us" (us (median t)) ]

let run ~size ~seed ~sfserved ~gbs =
  let serve, reply = client_server ~size ~seed ~sfserved in
  exec_and_hand ~size ~gbs @ mg ~size ~seed @ jit ~size ~seed
  @ corpus_gen_protocol ~size ~seed ~reply
  @ serve @ pool ()
  @ [ metric ~note:"Stream.measure, best of 5" "stream.gbs" "GB/s" gbs ]
