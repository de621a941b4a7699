open Sf_util
open Snowflake
open Sf_backends
open Sf_hpgmg
open Sf_roofline

type opts = {
  size : int;
  sizes : int list;
  cycles : int;
  workers : int;
  repeats : int;
}

let default_opts =
  { size = 32;
    sizes = [ 8; 16; 32; 64 ];
    cycles = 4;
    workers = Config.default_workers;
    repeats = 3;
  }

let csv_dir : string option ref = ref None

(* print a table and, when a CSV sink is configured, persist it — the
   data-series form of the figure *)
let emit_table name t =
  Tabular.print t;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      output_string oc (Tabular.render_csv t);
      close_out oc;
      Printf.printf "[csv written to %s]\n" path

let heading title =
  Printf.printf "\n==== %s ====\n%!" title

let rate_fmt v =
  if v >= 1e9 then Printf.sprintf "%.3fG" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.1f" v

let sec_fmt v =
  if v < 1e-4 then Printf.sprintf "%.3e s" v
  else if v < 1. then Printf.sprintf "%.4f s" v
  else Printf.sprintf "%.3f s" v

(* Shared measured machine handle: STREAM runs once per process. *)
let host_machine =
  lazy
    (let bw = Stream.measure ~n:2_000_000 ~trials:3 () in
     Machine.host ~bandwidth_gbs:bw ())

(* ------------------------------------------------------------------ E1 *)

let run_stream _opts =
  heading "E1 / Fig 6: modified STREAM (dot product) bandwidth";
  let host = Lazy.force host_machine in
  let t = Tabular.create ~headers:[ "machine"; "GB/s"; "source" ] in
  Tabular.add_row t
    [ host.Machine.name; Printf.sprintf "%.2f" host.Machine.bandwidth_gbs;
      "measured (Fig 6 kernel)" ];
  Tabular.add_row t
    [ Machine.i7_4765t.Machine.name; "22.20"; "paper §V.A (STREAM Triad)" ];
  Tabular.add_row t
    [ Machine.k20c.Machine.name; "127.00"; "paper §V.A (ERT)" ];
  emit_table "stream" t

(* --------------------------------------------------- operator plumbing *)

type operator = {
  op_name : string;
  group : Group.t;  (** the Snowflake description, boundaries interleaved *)
  hand : Level.t -> unit;  (** the hand-written comparator *)
  bytes : float;  (** paper §V.B compulsory traffic per stencil *)
  stencils_per_sweep : int -> int;  (** per interior size n *)
}

let cc_7pt_group =
  Group.make ~label:"cc_7pt"
    (Operators.boundaries ~grid:"u"
    @ [ Operators.laplacian_7pt ~out:"res" ~input:"u" ])

let operators =
  [
    {
      op_name = "CC 7pt Stencil";
      group = cc_7pt_group;
      hand =
        (fun level ->
          Baseline.laplacian_cc level ~out:(Level.res level)
            ~input:(Level.u level));
      bytes = Bound.bytes_cc_7pt;
      stencils_per_sweep = (fun n -> n * n * n);
    };
    {
      op_name = "CC Jacobi";
      group = Operators.jacobi_smooth;
      hand = Baseline.jacobi_cc;
      bytes = Bound.bytes_cc_jacobi;
      stencils_per_sweep = (fun n -> n * n * n);
    };
    {
      op_name = "VC GSRB";
      group = Operators.gsrb_smooth;
      hand = Baseline.smooth_gsrb;
      bytes = Bound.bytes_vc_gsrb;
      stencils_per_sweep = (fun n -> n * n * n);
    };
  ]

let prepared_level n =
  let level = Level.create ~n in
  Level.set_beta level Problem.beta_smooth;
  Baseline.init_dinv level;
  Level.fill_interior (Level.u level) level (fun x y z ->
      sin (7. *. x) +. cos (5. *. (y +. z)));
  Level.fill_interior (Level.f level) level Problem.rhs_sine;
  level

let time_group opts backend config level group =
  let kernel =
    Jit.compile ~config backend ~shape:level.Level.shape group
  in
  Timer.time ~label:group.Group.label ~warmup:1 ~repeats:opts.repeats
    (kernel.Kernel.bind ~params:(Level.params level) level.Level.grids)

(* ------------------------------------------------------------------ E2 *)

let run_fig7 opts =
  let n = opts.size in
  heading
    (Printf.sprintf
       "E2 / Fig 7: operator throughput at %d^3 (paper: 256^3) — stencils/s"
       n);
  let host = Lazy.force host_machine in
  let omp_cfg = Config.with_workers opts.workers Config.default in
  let t =
    Tabular.create
      ~headers:
        [
          "operator";
          "HPGMG(hand)";
          "Snowflake/OpenMP";
          "Snowflake/OpenCL(sim)";
          "Roofline(host)";
          "K20c CUDA(model)";
          "K20c OpenCL(model)";
          "Roofline(K20c)";
        ]
  in
  List.iter
    (fun op ->
      let level = prepared_level n in
      let stencils = float_of_int (op.stencils_per_sweep n) in
      let t_hand =
        Timer.time ~warmup:1 ~repeats:opts.repeats (fun () -> op.hand level)
      in
      let t_omp = time_group opts Jit.Openmp omp_cfg level op.group in
      let t_ocl = time_group opts Jit.Opencl Config.default level op.group in
      let bound_host =
        Bound.stencils_per_second ~machine:host ~bytes_per_stencil:op.bytes
      in
      let bound_k20 =
        Bound.stencils_per_second ~machine:Machine.k20c
          ~bytes_per_stencil:op.bytes
      in
      Tabular.add_row t
        [
          op.op_name;
          rate_fmt (stencils /. t_hand);
          rate_fmt (stencils /. t_omp);
          rate_fmt (stencils /. t_ocl);
          rate_fmt bound_host;
          rate_fmt bound_k20 (* hand CUDA ≈ roofline on the K20c *);
          rate_fmt (bound_k20 /. 2.) (* paper: OpenCL within 2x *);
          rate_fmt bound_k20;
        ])
    operators;
  emit_table "fig7" t;
  Printf.printf
    "GPU columns are roofline-model projections (no GPU in this container); \
     the paper's observed 2x OpenCL derate is applied.\n"

(* ------------------------------------------------------------------ E3 *)

(* Runtime-orchestration telemetry: how many waves went through the
   persistent pool vs inline (serial cutoff), printed by the experiments
   whose numbers depend on dispatch overhead. *)
let report_counters () =
  Printf.printf "counters: %s\n" (Sf_trace.Report.counters_line ())

let run_fig8 opts =
  heading "E3 / Fig 8: VC GSRB smoother time vs problem size";
  Sf_trace.Metrics.reset ();
  let host = Lazy.force host_machine in
  let omp_cfg = Config.with_workers opts.workers Config.default in
  let t =
    Tabular.create
      ~headers:
        [
          "size";
          "Snowflake/OpenMP";
          "HPGMG(hand)";
          "Roofline(host)";
          "K20c CUDA(model)";
          "K20c OpenCL(model)";
        ]
  in
  List.iter
    (fun n ->
      let level = prepared_level n in
      let points = n * n * n in
      let t_omp =
        time_group opts Jit.Openmp omp_cfg level Operators.gsrb_smooth
      in
      let t_hand =
        Timer.time ~warmup:1 ~repeats:opts.repeats (fun () ->
            Baseline.smooth_gsrb level)
      in
      let bound =
        Bound.sweep_time ~machine:host ~bytes_per_stencil:Bound.bytes_vc_gsrb
          ~points
      in
      let k20 d =
        Bound.predict_time ~machine:Machine.k20c ~derate:d
          ~bytes_per_stencil:Bound.bytes_vc_gsrb ~points ()
      in
      Tabular.add_row t
        [
          Printf.sprintf "%d^3" n;
          sec_fmt t_omp;
          sec_fmt t_hand;
          sec_fmt bound;
          sec_fmt (k20 1.);
          sec_fmt (k20 2.);
        ])
    opts.sizes;
  emit_table "fig8" t;
  report_counters ();
  Printf.printf
    "Small sizes can beat the DRAM roofline because they fit in cache \
     (paper notes the same for 32^3).\n"

(* ------------------------------------------------------------------ E4 *)

(* Bytes moved by one V(s,s)-cycle under the paper's traffic accounting:
   used to project GPU solve rates. *)
let model_vcycle_bytes ~n ~smooths ~coarsest_n ~coarse_iters =
  let rec go n acc =
    let pts = float_of_int (n * n * n) in
    if n <= coarsest_n then
      acc +. (float_of_int coarse_iters *. Bound.bytes_vc_gsrb *. pts)
    else begin
      let smooth_bytes =
        float_of_int (2 * smooths) *. Bound.bytes_vc_gsrb *. pts
      in
      let residual_bytes = 56. *. pts in
      let coarse_pts = float_of_int (n * n * n / 8) in
      let restrict_bytes = (8. *. pts) +. (16. *. coarse_pts) in
      let interp_bytes = (8. *. coarse_pts) +. (16. *. pts) in
      go (n / 2)
        (acc +. smooth_bytes +. residual_bytes +. restrict_bytes
       +. interp_bytes)
    end
  in
  go n 0.

let run_fig9 opts =
  let n = opts.size in
  heading
    (Printf.sprintf
       "E4 / Fig 9: GMG solver throughput at %d^3, %d V-cycles (paper: \
        256^3, 10 V-cycles) — DOF/s = unknowns / time-per-V-cycle"
       n opts.cycles);
  let host = Lazy.force host_machine in
  let mg_cfg =
    {
      Mg.default_config with
      backend = Jit.Openmp;
      jit = Config.with_workers opts.workers Config.default;
    }
  in
  let solver = Mg.create ~config:mg_cfg ~n () in
  Mg.set_beta solver Problem.beta_smooth;
  Problem.setup_variable ~seed:1 (Mg.finest solver);
  Mg.set_beta solver Problem.beta_smooth;
  (* warmup phase, as in §V.A *)
  Mg.vcycle solver;
  let t_snowflake =
    Timer.time ~warmup:0 ~repeats:1 (fun () ->
        for _ = 1 to opts.cycles do
          Mg.vcycle solver
        done)
    /. float_of_int opts.cycles
  in
  let base = Baseline.create ~n () in
  Baseline.set_beta base Problem.beta_smooth;
  Problem.setup_variable ~seed:1 (Baseline.finest base);
  Baseline.set_beta base Problem.beta_smooth;
  Baseline.vcycle base;
  let t_hand =
    Timer.time ~warmup:0 ~repeats:1 (fun () ->
        for _ = 1 to opts.cycles do
          Baseline.vcycle base
        done)
    /. float_of_int opts.cycles
  in
  let dof = float_of_int (Mg.dof solver) in
  let cfg = mg_cfg in
  let bytes =
    model_vcycle_bytes ~n ~smooths:cfg.Mg.smooths
      ~coarsest_n:cfg.Mg.coarsest_n ~coarse_iters:cfg.Mg.coarse_iters
  in
  let model machine derate =
    dof /. (derate *. bytes /. (machine.Machine.bandwidth_gbs *. 1e9))
  in
  let t = Tabular.create ~headers:[ "configuration"; "DOF/s"; "source" ] in
  Tabular.add_row t
    [ "Snowflake (OpenMP backend)"; rate_fmt (dof /. t_snowflake); "measured" ];
  Tabular.add_row t
    [ "HPGMG (hand)"; rate_fmt (dof /. t_hand); "measured" ];
  Tabular.add_row t
    [ "roofline bound (host)"; rate_fmt (model host 1.); "model" ];
  Tabular.add_row t
    [ "HPGMG-CUDA on K20c"; rate_fmt (model Machine.k20c 1.); "model" ];
  Tabular.add_row t
    [
      "Snowflake OpenCL on K20c";
      rate_fmt (model Machine.k20c 2.);
      "model (paper's 2x derate)";
    ];
  emit_table "fig9" t;
  Printf.printf "residual after benchmark cycles: %.3e\n"
    (Mg.residual_norm solver)

(* ------------------------------------------------------------- A1..A3 *)

let run_tiling opts =
  let n = opts.size in
  heading (Printf.sprintf "A1: OpenMP tile-size sweep, VC GSRB at %d^3" n);
  Sf_trace.Metrics.reset ();
  let level = prepared_level n in
  let t = Tabular.create ~headers:[ "tile"; "time"; "stencils/s" ] in
  let points = float_of_int (n * n * n) in
  List.iter
    (fun (label, tile) ->
      let config =
        {
          Config.default with
          workers = opts.workers;
          tile;
        }
      in
      let dt = time_group opts Jit.Openmp config level Operators.gsrb_smooth in
      Tabular.add_row t [ label; sec_fmt dt; rate_fmt (points /. dt) ])
    [
      ("outer chunks (default)", None);
      ("4x4x4", Some [ 4; 4; 4 ]);
      ("8x8x8", Some [ 8; 8; 8 ]);
      ("16x16x16", Some [ 16; 16; 16 ]);
      ("4x8x32", Some [ 4; 8; 32 ]);
      ("2x2x2", Some [ 2; 2; 2 ]);
    ];
  emit_table "tiling" t;
  report_counters ()

let run_multicolor opts =
  let n = opts.size in
  heading (Printf.sprintf "A2: multicolor reordering, VC GSRB at %d^3" n);
  let level = prepared_level n in
  let points = float_of_int (n * n * n) in
  let t = Tabular.create ~headers:[ "multicolor"; "time"; "stencils/s" ] in
  List.iter
    (fun flag ->
      let config =
        { Config.default with workers = opts.workers; multicolor = flag }
      in
      let dt = time_group opts Jit.Openmp config level Operators.gsrb_smooth in
      Tabular.add_row t
        [ (if flag then "on" else "off"); sec_fmt dt; rate_fmt (points /. dt) ])
    [ false; true ];
  emit_table "multicolor" t

let run_waves opts =
  let n = opts.size in
  heading
    (Printf.sprintf
       "A3: dependence-driven wave schedule vs per-stencil barriers (GSRB \
        smooth, %d^3)"
       n);
  let level = prepared_level n in
  let shape = level.Level.shape in
  let group = Operators.gsrb_smooth in
  let waves = Sf_analysis.Schedule.greedy_waves ~shape group in
  Printf.printf "group has %d stencils in %d waves: %s\n" (Group.length group)
    (List.length waves)
    (String.concat " | "
       (List.map
          (fun w -> String.concat "," (List.map string_of_int w))
          waves));
  let config = Config.with_workers (max 2 opts.workers) Config.default in
  let t_waves = time_group opts Jit.Openmp config level group in
  (* a barrier after every stencil: each stencil compiled as its own group *)
  let singletons =
    List.map
      (fun s ->
        (Jit.compile ~config Jit.Openmp ~shape
           (Group.make ~label:("solo_" ^ s.Stencil.label) [ s ]))
          .Kernel.bind ~params:(Level.params level) level.Level.grids)
      (Group.stencils group)
  in
  let t_serial =
    Timer.time ~warmup:1 ~repeats:opts.repeats (fun () ->
        List.iter (fun run -> run ()) singletons)
  in
  let t = Tabular.create ~headers:[ "schedule"; "barriers"; "time" ] in
  Tabular.add_row t
    [
      "greedy waves (analysis)";
      string_of_int (List.length waves);
      sec_fmt t_waves;
    ];
  Tabular.add_row t
    [
      "barrier per stencil";
      string_of_int (Group.length group);
      sec_fmt t_serial;
    ];
  emit_table "waves" t

let run_fusion opts =
  let n = 8 * opts.size in
  heading
    (Printf.sprintf
       "A4: stencil fusion (2-D unsharp mask: point-wise sharpen folded \
        into the blur pass), %dx%d"
       n n);
  let shape = Ivec.of_list [ n + 4; n + 4 ] in
  let zero = Ivec.zero 2 in
  let off a v =
    let o = Ivec.zero 2 in
    o.(a) <- v;
    o
  in
  let blur_x =
    Stencil.make ~label:"blur_x" ~output:"bx"
      ~expr:
        Expr.(
          const (1. /. 3.)
          *: (read "img" (off 1 (-1)) +: read "img" zero +: read "img" (off 1 1)))
      ~domain:(Domain.interior 2 ~ghost:1)
      ()
  in
  let blur_y =
    Stencil.make ~label:"blur_y" ~output:"blur"
      ~expr:
        Expr.(
          const (1. /. 3.)
          *: (read "bx" (off 0 (-1)) +: read "bx" zero +: read "bx" (off 0 1)))
      ~domain:(Domain.interior 2 ~ghost:2)
      ()
  in
  let sharpen =
    Stencil.make ~label:"sharpen" ~output:"out"
      ~expr:
        Expr.(
          read "img" zero
          +: (const 1.5 *: (read "img" zero -: read "blur" zero)))
      ~domain:(Domain.interior 2 ~ghost:2)
      ()
  in
  let pipeline = Group.make ~label:"unsharp" [ blur_x; blur_y; sharpen ] in
  let grids =
    Sf_mesh.Grids.of_list
      [
        ("img", Sf_mesh.Mesh.random ~seed:3 shape);
        ("bx", Sf_mesh.Mesh.create shape);
        ("blur", Sf_mesh.Mesh.create shape);
        ("out", Sf_mesh.Mesh.create shape);
      ]
  in
  let points = float_of_int (n * n) in
  let t =
    Tabular.create
      ~headers:
        [ "inline_producers"; "stencils after opt"; "time"; "points/s" ]
  in
  List.iter
    (fun (label, config) ->
      let optimized = Sf_backends.Passes.optimize config ~shape pipeline in
      let kernel = Jit.compile ~config Jit.Compiled ~shape pipeline in
      let dt =
        Timer.time ~warmup:1 ~repeats:opts.repeats (kernel.Kernel.bind grids)
      in
      Tabular.add_row t
        [
          label;
          string_of_int (Group.length optimized);
          sec_fmt dt;
          rate_fmt (points /. dt);
        ])
    [
      ("off", Config.default);
      ( "on (+DCE, out live)",
        {
          Config.default with
          inline_producers = true;
          dce = Config.Dce [ "out" ];
        } );
    ];
  emit_table "fusion" t;
  Printf.printf
    "Fusing the point-wise sharpen into the blur consumer removes one \
     full pass over the image (paper SVII future work, implemented); the \
     blur_x/blur_y pair is correctly NOT fused (offset reads).\n"

let run_autotune opts =
  let n = opts.size in
  heading (Printf.sprintf "A5: autotuner over tile/multicolor, VC GSRB at %d^3" n);
  let level = prepared_level n in
  let results =
    Tune.evaluate ~repeats:opts.repeats ~backend:Jit.Openmp
      ~shape:level.Level.shape ~params:(Level.params level)
      ~grids:level.Level.grids Operators.gsrb_smooth
  in
  let t = Tabular.create ~headers:[ "candidate"; "time"; "stencils/s" ] in
  let points = float_of_int (n * n * n) in
  let describe (c : Config.t) =
    Printf.sprintf "tile=%s mc=%b"
      (match c.Config.tile with
      | None -> "chunks"
      | Some ts -> String.concat "x" (List.map string_of_int ts))
      c.Config.multicolor
  in
  List.iter
    (fun (r : Tune.result) ->
      Tabular.add_row t
        [ describe r.Tune.config; sec_fmt r.Tune.time; rate_fmt (points /. r.Tune.time) ])
    results;
  emit_table "autotune" t;
  let best =
    List.fold_left
      (fun acc (r : Tune.result) ->
        match acc with
        | Some (b : Tune.result) when b.Tune.time <= r.Tune.time -> acc
        | _ -> Some r)
      None results
    |> Option.get
  in
  Printf.printf "winner: %s (%.4f s)\n" (describe best.Tune.config)
    best.Tune.time

let run_distributed opts =
  let n = opts.size in
  let local = max 2 (n / 2) in
  heading
    (Printf.sprintf
       "D1: simulated SPMD (2x2x2 ranks of %d^3) vs single domain %d^3 — \
        GSRB smooth"
       local (2 * local));
  let open Sf_distributed in
  let t = Spmd.create ~rank_grid:[ 2; 2; 2 ] ~local_n:local in
  Spmd.set_beta t (fun c -> Problem.beta_smooth c.(0) c.(1) c.(2));
  Spmd.fill_interior t ~base:"f" (fun c -> Problem.rhs_sine c.(0) c.(1) c.(2));
  let group = Spmd.gsrb_smooth_group t in
  let waves =
    Sf_analysis.Schedule.greedy_waves ~shape:t.Spmd.shape group
  in
  Printf.printf
    "smooth group: %d stencils in %d waves (sizes %s) — halo exchange \
     scheduled as one wave per colour\n"
    (Group.length group) (List.length waves)
    (String.concat ", " (List.map (fun w -> string_of_int (List.length w)) waves));
  let kernel =
    Jit.compile
      ~config:(Config.with_workers opts.workers Config.default)
      Jit.Openmp ~shape:t.Spmd.shape group
  in
  let t_spmd =
    Timer.time ~warmup:1 ~repeats:opts.repeats
      (kernel.Kernel.bind ~params:(Spmd.params t) t.Spmd.grids)
  in
  let single = prepared_level (2 * local) in
  let t_single =
    time_group opts Jit.Openmp
      (Config.with_workers opts.workers Config.default)
      single Operators.gsrb_smooth
  in
  let tab = Tabular.create ~headers:[ "configuration"; "time"; "overhead" ] in
  Tabular.add_row tab [ "single domain"; sec_fmt t_single; "1.00x" ];
  Tabular.add_row tab
    [
      "8 ranks + stencil halo exchange";
      sec_fmt t_spmd;
      Printf.sprintf "%.2fx" (t_spmd /. t_single);
    ];
  emit_table "distributed" tab

(* ------------------------------------------------------------------ P0 *)

(* The seed executor, reconstructed as the baseline: a fresh round of
   [Domain.spawn]/[Domain.join] for every wave of every kernel invocation —
   what `Sf_backends.Pool` did before it became a persistent pool. *)
let spawn_per_wave workers tasks =
  let n = Array.length tasks in
  if workers <= 1 || n <= 1 then Array.iter (fun f -> f ()) tasks
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          tasks.(i) ();
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      Array.init
        (min (workers - 1) (n - 1))
        (fun _ -> Stdlib.Domain.spawn worker)
    in
    worker ();
    Array.iter Stdlib.Domain.join spawned
  end

let run_pool opts =
  heading
    "P0: per-wave dispatch latency — spawn-per-wave (seed) vs persistent \
     pool";
  let max_w = max 1 opts.workers in
  let joins = 200 in
  let mesh_n = 16 in
  let work = Array.make (mesh_n * mesh_n * mesh_n) 1.0 in
  let empty_tasks w = Array.init w (fun _ () -> ()) in
  let work_tasks w =
    (* one wave sweeping 16^3 points, split into w slabs *)
    let total = Array.length work in
    let slab = (total + w - 1) / w in
    Array.init w (fun k () ->
        let lo = k * slab and hi = min total ((k + 1) * slab) in
        for i = lo to hi - 1 do
          work.(i) <- (work.(i) *. 0.999) +. 0.001
        done)
  in
  let per_wave f =
    Timer.time ~warmup:1 ~repeats:opts.repeats (fun () ->
        for _ = 1 to joins do
          f ()
        done)
    /. float_of_int joins
  in
  let us v = Printf.sprintf "%.2f us" (v *. 1e6) in
  let t =
    Tabular.create
      ~headers:[ "workers"; "task"; "spawn/wave"; "pool/wave"; "speedup" ]
  in
  for w = 1 to max_w do
    let pool = Pool.create ~workers:w in
    List.iter
      (fun (kind, tasks) ->
        let t_spawn = per_wave (fun () -> spawn_per_wave w tasks) in
        let t_pool = per_wave (fun () -> Pool.run_tasks pool tasks) in
        Tabular.add_row t
          [
            string_of_int w;
            kind;
            us t_spawn;
            us t_pool;
            Printf.sprintf "%.1fx" (t_spawn /. t_pool);
          ])
      [ ("empty", empty_tasks w); ("16^3", work_tasks w) ]
  done;
  emit_table "pool" t;
  report_counters ()

(* F1: the tentpole perf experiment — unfused vs fused-config vs
   temporally-blocked 4-sweep GSRB.  GSRB's colour sweeps are provably
   not cofusible (the fused row documents that the partition stays
   singleton and costs nothing); the memory-traffic win comes from the
   time-tiled variant, which runs all 4 sweeps in one skewed pass.
   Writes BENCH_fusion.json so the bytes/cell trajectory is tracked
   across PRs. *)
let run_fusion_bench opts =
  let sweeps = 4 in
  heading
    (Printf.sprintf
       "F1: cross-wave fusion + temporal blocking, %d-sweep GSRB (openmp, \
        %d workers)"
       sweeps opts.workers);
  let host = Lazy.force host_machine in
  let bw = host.Machine.bandwidth_gbs in
  Printf.printf "STREAM bandwidth: %.2f GB/s (roofline reference)\n" bw;
  let sizes = [ 32; 64; 128 ] in
  let group = Operators.gsrb_smooth in
  let base = Config.with_workers opts.workers Config.default in
  let t =
    Tabular.create
      ~headers:
        [ "n"; "variant"; "plan"; "bytes/cell"; "wall"; "GB/s"; "%roofline" ]
  in
  let rows = ref [] in
  List.iter
    (fun n ->
      let level = prepared_level n in
      let shape = level.Level.shape in
      let params = Level.params level in
      let grids = level.Level.grids in
      let run_variant (variant, plan, bytes, kernel, runs_per_sample) =
        let run = kernel.Kernel.bind ~params grids in
        let dt =
          Timer.time ~label:variant ~warmup:1 ~repeats:opts.repeats
            (fun () ->
              for _ = 1 to runs_per_sample do
                run ()
              done)
        in
        let cells = sweeps * n * n * n in
        let bytes_per_cell = float_of_int bytes /. float_of_int cells in
        let gbs = float_of_int bytes /. dt /. 1e9 in
        let pct = 100. *. gbs /. bw in
        rows := (n, variant, plan, bytes_per_cell, dt, gbs, pct) :: !rows;
        Tabular.add_row t
          [
            string_of_int n;
            variant;
            plan;
            Printf.sprintf "%.1f" bytes_per_cell;
            sec_fmt dt;
            Printf.sprintf "%.2f" gbs;
            Printf.sprintf "%.1f%%" pct;
          ]
      in
      let unfused_cfg = { base with Config.fusion = false } in
      let fused_cfg = { base with Config.fusion = true } in
      let app_bytes cfg =
        (Costing.of_clusters ~shape
           (List.map
              (fun (c : Fusion.cluster) -> c.Fusion.members)
              (Fusion.partition cfg ~shape group)))
          .Costing.bytes
      in
      run_variant
        ( "unfused",
          "4 plain sweeps",
          sweeps * app_bytes unfused_cfg,
          Jit.compile ~config:unfused_cfg Jit.Openmp ~shape group,
          sweeps );
      run_variant
        ( "fused",
          "fusion " ^ Fusion.describe (Fusion.partition fused_cfg ~shape group),
          sweeps * app_bytes fused_cfg,
          Jit.compile ~config:fused_cfg Jit.Openmp ~shape group,
          sweeps );
      let tplan =
        match Timetile.plan base ~shape ~reps:sweeps group with
        | Some p -> Timetile.describe p
        | None -> "plain loop"
      in
      run_variant
        ( "ttile4",
          tplan,
          (Costing.of_timetile ~shape ~reps:sweeps group).Costing.bytes,
          Jit.compile ~config:base ~reps:sweeps Jit.Openmp ~shape group,
          1 ))
    sizes;
  let rows = List.rev !rows in
  emit_table "fusion_bench" t;
  (* headline at the largest size: model bytes and measured wall, plain
     vs time-tiled *)
  let pick variant =
    List.find (fun (n, v, _, _, _, _, _) -> n = List.fold_left max 0 sizes && v = variant) rows
  in
  let _, _, _, b_plain, w_plain, _, _ = pick "unfused" in
  let _, _, _, b_tile, w_tile, _, _ = pick "ttile4" in
  let bytes_ratio = b_plain /. b_tile in
  let wall_ratio = w_plain /. w_tile in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"benchmark\": \"fusion-timetile-gsrb\",\n";
  Printf.bprintf buf "  \"sweeps\": %d,\n" sweeps;
  Printf.bprintf buf "  \"workers\": %d,\n" opts.workers;
  Printf.bprintf buf "  \"stream_gbs\": %.2f,\n" bw;
  Printf.bprintf buf "  \"rows\": [\n";
  List.iteri
    (fun i (n, variant, plan, bpc, wall, gbs, pct) ->
      Printf.bprintf buf
        "    {\"n\": %d, \"variant\": %S, \"plan\": %S, \"bytes_per_cell\": \
         %.2f, \"wall_s\": %.6f, \"gbs\": %.2f, \"roofline_pct\": %.1f}%s\n"
        n variant plan bpc wall gbs pct
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.bprintf buf "  ],\n";
  Printf.bprintf buf "  \"bytes_per_cell_ratio_unfused_vs_ttile\": %.2f,\n"
    bytes_ratio;
  Printf.bprintf buf "  \"wallclock_ratio_unfused_vs_ttile\": %.2f\n"
    wall_ratio;
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_fusion.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf
    "[BENCH_fusion.json written: time depth %d cuts model traffic %.2fx \
     (wall-clock %.2fx) vs %d plain sweeps at %d^3]\n"
    sweeps bytes_ratio wall_ratio sweeps (List.fold_left max 0 sizes)

(* A correctness gate printed into the benchmark log, in the spirit of
   HPGMG's built-in verification: the numbers above only matter if these
   hold. *)
let run_verify _opts =
  heading "V0: correctness gate (HPGMG-style verification)";
  let t = Tabular.create ~headers:[ "check"; "result"; "detail" ] in
  let check name ok detail =
    Tabular.add_row t [ name; (if ok then "PASS" else "FAIL"); detail ]
  in
  (* 1. multigrid convergence + discretisation error *)
  let solver = Mg.create ~n:16 () in
  Problem.setup_poisson (Mg.finest solver);
  let norms = Mg.solve ~cycles:6 solver in
  let factor = norms.(6) /. norms.(5) in
  check "V-cycle convergence" (factor < 0.2)
    (Printf.sprintf "asymptotic factor %.3f (expect < 0.2)" factor);
  let err =
    Level.error_vs (Mg.finest solver)
      (Level.u (Mg.finest solver))
      Problem.exact_sine
  in
  check "discretisation error" (err < 5e-3)
    (Printf.sprintf "L-inf error %.2e at n=16 (O(h^2) ~ 3.9e-3)" err);
  (* 2. generated code vs hand-written baseline *)
  let dsl = Mg.create ~n:8 () in
  let hand = Baseline.create ~n:8 () in
  Mg.set_beta dsl Problem.beta_smooth;
  Baseline.set_beta hand Problem.beta_smooth;
  Problem.setup_variable ~seed:5 (Mg.finest dsl);
  Problem.setup_variable ~seed:5 (Baseline.finest hand);
  Mg.set_beta dsl Problem.beta_smooth;
  Baseline.set_beta hand Problem.beta_smooth;
  for _ = 1 to 2 do
    Mg.vcycle dsl;
    Baseline.vcycle hand
  done;
  let d =
    Sf_mesh.Mesh.max_abs_diff
      (Level.u (Mg.finest dsl))
      (Level.u (Baseline.finest hand))
  in
  check "DSL = hand-written" (d < 1e-9) (Printf.sprintf "max diff %.2e" d);
  (* 3. every backend produces the same smoother result *)
  let level_for backend =
    let l = prepared_level 8 in
    let k = Jit.compile backend ~shape:l.Level.shape Operators.gsrb_smooth in
    k.Kernel.run ~params:(Level.params l) l.Level.grids;
    Level.u l
  in
  let reference = level_for Jit.Interp in
  let backend_diff =
    List.fold_left
      (fun acc b ->
        Float.max acc (Sf_mesh.Mesh.max_abs_diff reference (level_for b)))
      0.
      [ Jit.Compiled; Jit.Openmp; Jit.Opencl ]
  in
  check "backends agree" (backend_diff < 1e-11)
    (Printf.sprintf "max backend deviation %.2e" backend_diff);
  (* 4. parallel plans are conflict-free *)
  let plan_ok =
    List.for_all
      (fun (w : Sf_backends.Plan.wave) ->
        Sf_backends.Schedule_check.wave_conflicts w.Sf_backends.Plan.tasks
        = [])
      (Jit.lower
         ~config:(Config.with_workers 4 Config.default)
         Jit.Openmp
         ~shape:(Ivec.of_list [ 18; 18; 18 ])
         Operators.gsrb_smooth)
        .Sf_backends.Plan.waves
  in
  check "plan conflict-freedom" plan_ok "exact lattice check on all waves";
  emit_table "verify" t

let run_codegen opts =
  let n = opts.size in
  heading "Micro-compiler source emission (GSRB smooth)";
  let shape = Ivec.of_list [ n + 2; n + 2; n + 2 ] in
  let grid_shapes _ = shape in
  let seq = Sf_codegen.Seq_emit.emit ~shape ~grid_shapes Operators.gsrb_smooth in
  let omp = Sf_codegen.Omp_emit.emit ~shape ~grid_shapes Operators.gsrb_smooth in
  let ocl = Sf_codegen.Ocl_emit.emit ~shape ~grid_shapes Operators.gsrb_smooth in
  let cuda = Sf_codegen.Cuda_emit.emit ~shape ~grid_shapes Operators.gsrb_smooth in
  let lines s = List.length (String.split_on_char '\n' s) in
  Printf.printf "sequential C translation unit: %d lines\n" (lines seq);
  Printf.printf "OpenMP C translation unit:     %d lines\n" (lines omp);
  Printf.printf "OpenCL translation unit:       %d lines\n" (lines ocl);
  Printf.printf "CUDA translation unit:         %d lines\n" (lines cuda);
  print_endline "--- first 24 lines of the OpenMP source ---";
  String.split_on_char '\n' omp
  |> List.filteri (fun i _ -> i < 24)
  |> List.iter print_endline

let run_all opts =
  run_verify opts;
  run_stream opts;
  run_fig7 opts;
  run_fig8 opts;
  run_fig9 opts;
  run_tiling opts;
  run_multicolor opts;
  run_waves opts;
  run_fusion opts;
  run_autotune opts;
  run_distributed opts;
  run_codegen opts
