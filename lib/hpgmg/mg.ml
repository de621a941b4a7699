open Sf_mesh
open Snowflake
open Sf_backends

type interp_kind = Constant | Linear
type smoother = Gsrb | Gsrb4 | Jacobi | Chebyshev of int

type config = {
  backend : Jit.backend;
  jit : Config.t;
  smoother : smoother;
  smooths : int;
  coarsest_n : int;
  coarse_iters : int;
  interp : interp_kind;
}

let default_config =
  {
    backend = Jit.Compiled;
    jit = Config.default;
    smoother = Gsrb;
    smooths = 2;
    coarsest_n = 2;
    coarse_iters = 24;
    interp = Constant;
  }

type groups = {
  smoother : Group.t;
  residual : Group.t;
  dinv : Group.t;
  restrict : Group.t;
  interp : Group.t;
}

(* One level's operators, bound to its meshes: what a cycle runs, with
   no compile and no lookup.  The smoother keeps its kernel for
   [smoother_plan]'s descriptions. *)
type ops = {
  smooth : Kernel.t * Kernel.instance;
  tiled : (Kernel.t * Kernel.instance) option;
      (* [time_tile] smooths per run, when the smoother is tileable *)
  residual : Kernel.instance;
  dinv : Kernel.instance;
  (* transfers with the next coarser level; no-ops on the coarsest *)
  restrict_res : Kernel.instance;  (* this res into the coarser f *)
  restrict_f : Kernel.instance;  (* this f into the coarser f (F-cycle) *)
  interp : Kernel.instance;  (* the coarser u corrects this u *)
}

type t = {
  levels : Level.t array;
  config : config;
  groups : groups;
  timers : (string, float ref) Hashtbl.t;
  mutable active_backend : Jit.backend;
      (* starts at config.backend; demoted down the failover chain by
         [solve_resilient] when a backend keeps failing *)
  mutable ops : ops array;  (* one per level, bound by [bind_ops] *)
}

module Fault = Sf_resilience.Fault
module Checkpoint = Sf_resilience.Checkpoint

let finest t = t.levels.(0)
let dof t = Level.dof (finest t)

module Trace = Sf_trace.Trace

(* Wall-time accounting per (operation, level) — the HPGMG breakdown.
   Exception-safe: a raising [f] still books the time it spent (a partial
   bottom solve that dies must not vanish from the profile).  With tracing
   on, each sample is also recorded as a [phase] span. *)
let timed t key f =
  (* the "mg" fault site: a Raise/Transient aborts the phase before it
     runs (the V-cycle unwinds to solve_resilient's rollback); poison
     kinds corrupt the finest solution *after* the phase completes, so
     the corruption survives into subsequent phases the way real silent
     data corruption does *)
  let fault =
    if Fault.armed () then Fault.fire ~site:"mg" ~detail:key else None
  in
  let t0_us = Trace.now_us () in
  Fun.protect
    ~finally:(fun () ->
      let dur_us = Trace.now_us () -. t0_us in
      let dt = dur_us *. 1e-6 in
      (match Hashtbl.find_opt t.timers key with
      | Some r -> r := !r +. dt
      | None -> Hashtbl.replace t.timers key (ref dt));
      if Trace.on () then Trace.record_span Trace.Phase key ~ts_us:t0_us ~dur_us)
    f;
  match fault with
  | Some Fault.Nan_poison | Some Fault.Inf_poison ->
      let u = Level.u t.levels.(0) in
      let v =
        if fault = Some Fault.Nan_poison then Float.nan else Float.infinity
      in
      (* hit the domain centre — an interior cell; the flat midpoint of a
         ghosted mesh decodes to a boundary ghost that the Dirichlet
         stencils would immediately rewrite *)
      Mesh.set u (Array.map (fun n -> n / 2) (Mesh.shape u)) v
  | _ -> ()

let profile t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.timers []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let reset_profile t = Hashtbl.reset t.timers

(* Stencil groups built once per solver, at its rank, and reused across
   levels; resolution against each level's shape happens at JIT time, so
   one definition serves the whole hierarchy — the language property
   §II.A calls out.  GSRB and Jacobi relax the variable-coefficient
   operator whose residual they reduce.  Chebyshev stays on the
   constant-coefficient one: its step sizes come from λmax = 4·dims/h²,
   which bounds that operator's spectrum but not a β-weighted one. *)
let make_groups ~dims (config : config) =
  let vc = Nd.vc ~dims and cc = Nd.cc ~dims in
  let smoother =
    match config.smoother with
    | Gsrb -> Nd.gsrb vc ~ncolors:2
    | Gsrb4 -> Nd.gsrb vc ~ncolors:4
    | Jacobi -> Nd.jacobi vc
    | Chebyshev degree -> Nd.chebyshev cc ~degree
  in
  let interp =
    match config.interp with
    | Constant -> Group.make ~label:"interp_pc" (Nd.interpolation ~dims)
    | Linear ->
        Group.make ~label:"interp_tl"
          (Nd.boundaries ~dims ~grid:"coarse_u" @ Nd.interpolation_linear ~dims)
  in
  {
    smoother;
    residual =
      Group.make ~label:"residual"
        (Nd.boundaries ~dims ~grid:"u" @ [ Nd.residual vc ]);
    dinv = Group.make ~label:"dinv" [ Nd.dinv vc ];
    restrict = Group.make ~label:"restrict" [ Nd.restriction ~dims ];
    interp;
  }

let smoother_params (config : config) level =
  match config.smoother with
  | Gsrb | Gsrb4 | Jacobi -> Level.params level
  | Chebyshev degree ->
      Nd.chebyshev_params ~dims:level.Level.dims ~level_h:level.Level.h
        ~lambda_lo_frac:0.1 ~degree

(* Kernels come from the supervised compiler against the *active*
   backend: on a clean run this is exactly Jit.compile (the supervised
   path engages only under armed faults / active guards), and under a
   chaos campaign each run gets per-wave retry, guard scans and the
   backend failover chain.  Every kernel is compiled and bound here, at
   set-up and after a demotion, never inside a cycle.

   [time_tile] = k > 1 also binds a kernel running k smooths per call
   when the smoother group is provably tileable (k sweeps for ~one pass
   of memory traffic, bitwise identical to k plain smooths).  An
   untileable smoother silently runs plain smooths — the knob is a
   performance request, never a semantics change. *)
let bind_ops t =
  let compile group (level : Level.t) =
    Supervise.compile ~config:t.config.jit t.active_backend
      ~shape:level.Level.shape group
  in
  let bind group level =
    (compile group level).Kernel.bind ~params:(Level.params level)
      level.Level.grids
  in
  let smoother level (kernel : Kernel.t) =
    ( kernel,
      kernel.Kernel.bind ~params:(smoother_params t.config level)
        level.Level.grids )
  in
  let group = t.groups.smoother and k = t.config.jit.Config.time_tile in
  let last = Array.length t.levels - 1 in
  Array.mapi
    (fun i level ->
      let shape = level.Level.shape and coarse = t.levels.(min (i + 1) last) in
      (* [group] compiled once at the coarser shape, bound per call *)
      let transfer group =
        if i = last then fun _ -> ignore
        else
          let kernel = compile group coarse in
          fun grids ->
            kernel.Kernel.bind ~params:(Level.params coarse)
              (Grids.of_list grids)
      in
      let restrict = transfer t.groups.restrict in
      {
        smooth = smoother level (compile group level);
        tiled =
          (if k > 1 && Timetile.legal ~shape group then
             Some
               (smoother level
                  (Jit.compile ~config:t.config.jit ~reps:k t.active_backend
                     ~shape group))
           else None);
        residual = bind t.groups.residual level;
        dinv = bind t.groups.dinv level;
        restrict_res =
          restrict [ ("fine_res", Level.res level); ("coarse_f", Level.f coarse) ];
        restrict_f =
          restrict [ ("fine_res", Level.f level); ("coarse_f", Level.f coarse) ];
        interp =
          transfer t.groups.interp
            [ ("coarse_u", Level.u coarse); ("fine_u", Level.u level) ];
      })
    t.levels

let active_backend t = t.active_backend

(* Demote the active backend one step down the failover chain and rebind
   every level against it; false when already at the chain's end.
   Distinct from Supervise's per-run failover: a demotion is sticky —
   every later kernel runs on the weaker backend — which is what rollback
   re-runs want.  It is therefore counted apart from
   [supervisor.failovers], tracing or not. *)
let demotions = Sf_trace.Metrics.counter "mg.demotions"

let demote_backend t =
  match Supervise.chain t.active_backend with
  | _ :: next :: _ ->
      let from = Jit.backend_name t.active_backend in
      t.active_backend <- next;
      t.ops <- bind_ops t;
      Atomic.incr demotions;
      if Trace.on () then
        Trace.record_span
          ~args:
            [ ("from", Trace.Str from);
              ("to", Trace.Str (Jit.backend_name next)) ]
          Trace.Phase "failover:mg" ~ts_us:(Trace.now_us ()) ~dur_us:0.;
      true
  | _ -> false

let init_dinv t = Array.iter (fun ops -> ops.dinv ()) t.ops

let create ?(config = default_config) ?(dims = 3) ~n () =
  let groups = make_groups ~dims config in
  let rec sizes acc n =
    if n = config.coarsest_n then List.rev (n :: acc)
    else if n < config.coarsest_n || n mod 2 <> 0 then
      invalid_arg
        (Printf.sprintf "Mg.create: n must be coarsest_n (%d) times a power of 2"
           config.coarsest_n)
    else sizes (n :: acc) (n / 2)
  in
  let levels =
    Array.of_list (List.map (fun n -> Level.create_nd ~dims ~n) (sizes [] n))
  in
  let t =
    {
      levels;
      config;
      groups;
      timers = Hashtbl.create 32;
      active_backend = config.backend;
      ops = [||];
    }
  in
  t.ops <- bind_ops t;
  (* betas default to 1; dinv must still be initialised *)
  init_dinv t;
  t

let set_beta t beta =
  Array.iter (fun level -> Level.set_beta level beta) t.levels;
  init_dinv t

(* [count] consecutive smoother applications on level [i]: count/k runs
   of the time-tiled instance when there is one, the remainder as plain
   smooths.  Returns each instance, with its kernel, and its number of
   runs. *)
let smooth_runs t i ~count =
  let ops = t.ops.(i) in
  let k = t.config.jit.Config.time_tile in
  match ops.tiled with
  | Some tiled when count >= k ->
      (tiled, count / k)
      :: (if count mod k = 0 then [] else [ (ops.smooth, count mod k) ])
  | _ -> [ (ops.smooth, count) ]

let smooth_steps_untimed t i ~count =
  List.iter
    (fun ((_, run), times) ->
      for _ = 1 to times do
        run ()
      done)
    (smooth_runs t i ~count)

let smooth_steps t i ~count =
  timed t
    (Printf.sprintf "smooth L%d" i)
    (fun () -> smooth_steps_untimed t i ~count)

let smooth t i = smooth_steps t i ~count:1

(* what one pre- or post-smooth runs on the finest level, for [--profile]
   reports: the descriptions of the very kernels [smooth_steps] runs *)
let smoother_plan t =
  smooth_runs t 0 ~count:t.config.smooths
  |> List.map (fun ((kernel, _), times) ->
         Printf.sprintf "%d x [%s]" times kernel.Kernel.description)
  |> String.concat " then "

let compute_residual t i =
  timed t (Printf.sprintf "residual L%d" i) t.ops.(i).residual

let rec cycle t i =
  let coarsest = Array.length t.levels - 1 in
  if i = coarsest then
    timed t
      (Printf.sprintf "bottom L%d" i)
      (fun () -> smooth_steps_untimed t i ~count:t.config.coarse_iters)
  else begin
    smooth_steps t i ~count:t.config.smooths;
    compute_residual t i;
    timed t
      (Printf.sprintf "restrict L%d->L%d" i (i + 1))
      t.ops.(i).restrict_res;
    Mesh.fill (Level.u t.levels.(i + 1)) 0.;
    cycle t (i + 1);
    timed t (Printf.sprintf "interp L%d->L%d" (i + 1) i) t.ops.(i).interp;
    smooth_steps t i ~count:t.config.smooths
  end

let cycle_args t =
  [
    ("levels", Trace.Int (Array.length t.levels));
    ("dof", Trace.Int (dof t));
  ]

let vcycle t =
  if Trace.on () then
    Trace.span ~args:(cycle_args t) Trace.Vcycle "vcycle" (fun () ->
        cycle t 0)
  else cycle t 0

let fcycle_untraced t =
  let nlevels = Array.length t.levels in
  (* push the right-hand side down the hierarchy *)
  for i = 0 to nlevels - 2 do
    t.ops.(i).restrict_f ()
  done;
  (* bottom solve *)
  let bottom = nlevels - 1 in
  Mesh.fill (Level.u t.levels.(bottom)) 0.;
  smooth_steps t bottom ~count:t.config.coarse_iters;
  (* prolong upward, one V-cycle per level *)
  for i = nlevels - 2 downto 0 do
    Mesh.fill (Level.u t.levels.(i)) 0.;
    t.ops.(i).interp ();
    cycle t i
  done

let fcycle t =
  if Trace.on () then
    Trace.span ~args:(cycle_args t) Trace.Vcycle "fcycle" (fun () ->
        fcycle_untraced t)
  else fcycle_untraced t

let residual_norm t =
  compute_residual t 0;
  let level = finest t in
  Level.interior_norm_l2 level (Level.res level)

let solve ?(cycles = 10) t =
  let norms = Array.make (cycles + 1) 0. in
  norms.(0) <- residual_norm t;
  for c = 1 to cycles do
    vcycle t;
    norms.(c) <- residual_norm t
  done;
  norms

(* Checkpointed, self-healing solve.

   Rollback state is the finest-level solution mesh alone: a V-cycle
   recomputes every coarser u/f/res from scratch (coarse u is zeroed
   before each descent, coarse f is overwritten by restriction) and the
   finest f and dinv are never written — so restoring u(0) returns the
   solver exactly to the last good cycle boundary.

   A cycle is "good" when its residual norm is finite and has not blown
   up past [divergence_factor] x the last accepted norm.  A bad cycle —
   divergence, a guard trip, or an exception the per-kernel supervisor
   could not absorb — rolls the solution back to the newest checkpoint,
   demotes the active backend one step down the failover chain, and
   re-runs the same cycle.  [max_rollbacks] bounds the total healing
   budget; runtime-fatal exceptions are never absorbed. *)
let fatal = function
  | Out_of_memory | Stack_overflow | Assert_failure _ -> true
  | _ -> false

let solve_resilient ?(cycles = 10) ?(checkpoint_every = 1) ?(ring = 3)
    ?(divergence_factor = 10.) ?(max_rollbacks = 8) t =
  if checkpoint_every < 1 then
    invalid_arg "Mg.solve_resilient: checkpoint_every < 1";
  let u0 = Level.u (finest t) in
  let ck =
    Checkpoint.create ~capacity:ring ~label:"mg"
      ~alloc:(fun () -> Mesh.create (finest t).Level.shape)
      ~save:(fun buf -> Mesh.blit ~src:u0 ~dst:buf)
      ~restore:(fun buf -> Mesh.blit ~src:buf ~dst:u0)
      ()
  in
  let norms = Array.make (cycles + 1) 0. in
  norms.(0) <- residual_norm t;
  (* tag 0: even a failure in the very first cycle has somewhere to go *)
  Checkpoint.checkpoint ck ~tag:0;
  let last_good = ref norms.(0) in
  let rollbacks = ref 0 in
  let c = ref 1 in
  while !c <= cycles do
    let outcome =
      try
        vcycle t;
        let r = residual_norm t in
        if Float.is_finite r && r <= divergence_factor *. Float.max !last_good epsilon_float
        then Ok r
        else
          Error
            (Failure
               (Printf.sprintf
                  "Mg.solve_resilient: cycle %d diverged (residual %g, last \
                   good %g)"
                  !c r !last_good))
      with e when not (fatal e) -> Error e
    in
    match outcome with
    | Ok r ->
        norms.(!c) <- r;
        last_good := r;
        if !c mod checkpoint_every = 0 then Checkpoint.checkpoint ck ~tag:!c;
        incr c
    | Error e ->
        incr rollbacks;
        if !rollbacks > max_rollbacks then raise e;
        ignore (Checkpoint.rollback ck : int option);
        (* chain exhausted: keep re-running on the weakest backend; the
           rollback budget still bounds the attempts *)
        ignore (demote_backend t : bool)
  done;
  norms
