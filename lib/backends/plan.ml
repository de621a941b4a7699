(* Execution plans and the one executor every backend shares.

   A backend only chooses a decomposition (paper §IV): it lowers a group
   to waves of tasks of (stencil, tile) steps.  Everything else a kernel
   invocation does — instantiating the steps once per binding, trace
   spans, the wave fault site, inline-or-pool dispatch — lives here. *)

open Snowflake
module Trace = Sf_trace.Trace
module Fault = Sf_resilience.Fault

type step = Stencil.t * Domain.resolved
type task = step list
type wave = { tasks : task array; points : int; label : string }

type t = {
  backend : string;
  group : Group.t;
  shape : Sf_util.Ivec.t;
  waves : wave list;
  description : string;
  cost : Costing.t;
}

(* distinct stencils, first-occurrence order; also applied to a whole
   wave's steps to label it *)
let members (steps : task) =
  List.fold_left
    (fun acc ((s : Stencil.t), _) -> if List.memq s acc then acc else s :: acc)
    [] steps
  |> List.rev

let task_label steps =
  String.concat "+"
    (List.map (fun (s : Stencil.t) -> s.Stencil.label) (members steps))

let make ~backend ~shape ~description ~cost group waves =
  let wave tasks =
    let steps = List.concat tasks in
    {
      tasks = Array.of_list tasks;
      points =
        List.fold_left (fun acc (_, r) -> acc + Domain.npoints r) 0 steps;
      label = task_label steps;
    }
  in
  {
    backend;
    group;
    shape = Array.copy shape;
    waves = List.map wave waves;
    description;
    cost;
  }

let parallel_ok (cfg : Config.t) ~shape (s : Stencil.t) =
  Sf_analysis.Dependence.point_parallel ~shape s
  || List.mem s.Stencil.label cfg.Config.force_parallel

let cluster_tasks (cfg : Config.t) ~shape ~split members =
  match members with
  | [] -> []
  | [ s ] when not (parallel_ok cfg ~shape s) ->
      [ List.map (fun r -> (s, r)) (Domain.resolve ~shape s.Stencil.domain) ]
  | first :: _ ->
      let per_rect =
        List.map split (Domain.resolve ~shape first.Stencil.domain)
      in
      let tiles =
        if cfg.Config.multicolor then Multicolor.interleave per_rect
        else List.concat per_rect
      in
      List.map (fun tile -> List.map (fun s -> (s, tile)) members) tiles

(* ------------------------------------------------------------ executor *)

type tier = Interp | Compiled

let execute ~tier (cfg : Config.t) plan =
  let glabel = plan.group.Group.label in
  let shape = plan.shape in
  let waves = Array.of_list plan.waves in
  (* span names and arguments are built only when a fault site is armed
     or tracing is on, so a cached kernel retains nothing for them *)
  let wave_name i = Printf.sprintf "%s/wave%d" glabel i in
  (* a view of the process-wide persistent domain pool: every kernel
     shares the same hot workers, capped here at the configured degree *)
  let pool =
    Pool.create ~workers:cfg.Config.workers
    |> Pool.with_serial_cutoff cfg.Config.serial_cutoff
  in
  let cache = Run_cache.create () in
  let grid_names = Group.grids plan.group in
  let stencils = Group.stencils plan.group in
  (* per binding: every stencil validated and prepared once, every step
     instantiated into a zero-setup thunk *)
  let instantiate grids params =
    if cfg.Config.validate then
      List.iter (Exec.validate_stencil grids ~shape) stencils;
    let prepare (s : Stencil.t) =
      let params =
        Kernel.param_lookup
          ~loc:(Srcloc.stencil ~group:glabel s.Stencil.label)
          params
      in
      match tier with
      | Interp -> fun rect () -> Exec.run_rect_interp grids ~params s rect
      | Compiled -> Exec.prepare_compiled grids ~params s
    in
    let prepared = ref [] in
    let runner s =
      match List.assq_opt s !prepared with
      | Some f -> f
      | None ->
          let f = prepare s in
          prepared := (s, f) :: !prepared;
          f
    in
    Array.map
      (fun w ->
        Array.map
          (fun task ->
            match List.map (fun (s, tile) -> runner s tile) task with
            | [ f ] -> f
            | fs ->
                let fs = Array.of_list fs in
                fun () -> Array.iter (fun f -> f ()) fs)
          w.tasks)
      waves
  in
  let run_wave i tasks =
    (* the "wave" fault site: Raise/Transient abort the wave (the
       supervisor's retry/failover absorbs them), Delay sleeps inside
       fire; poison kinds belong to the "kernel" site, which knows the
       output grids *)
    if Fault.armed () then
      ignore (Fault.fire ~site:"wave" ~detail:(wave_name i));
    if Array.length tasks = 1 then tasks.(0) ()
    else Pool.run_tasks ~points:waves.(i).points pool tasks
  in
  let traced_wave i tasks =
    let w = waves.(i) in
    Trace.span
      ~args:
        [
          ("group", Trace.Str glabel);
          ("wave", Trace.Int i);
          ("stencil", Trace.Str w.label);
          ("points", Trace.Int w.points);
          ("tasks", Trace.Int (Array.length w.tasks));
        ]
      Trace.Wave (wave_name i)
      (fun () -> run_wave i tasks)
  in
  let run ?(params = []) grids =
    let runs =
      Run_cache.get cache ~grids ~names:grid_names ~params (fun () ->
          instantiate grids params)
    in
    Array.iteri (if Trace.on () then traced_wave else run_wave) runs
  in
  Kernel.make ~name:glabel ~backend:plan.backend
    ~description:plan.description run
