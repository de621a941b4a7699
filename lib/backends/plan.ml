(* Execution plans and the one executor every backend shares.

   A backend only chooses a decomposition (paper §IV): it lowers a group
   to waves of tasks of (stencil, tile) steps.  Everything else a kernel
   does — validating and instantiating the steps once per bind, trace
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

(* ----------------------------------------------------- specialisations *)

type tier = Interp | Compiled

(* A step made ready for one specialisation: a tile of form [form] with
   its geometry, or a rect the interpreter runs against the bound grids. *)
type sstep = Tile of int * int array | Walk of Stencil.t * Domain.resolved

(* Everything a bind needs that reads no mesh data, for one kernel at one
   exact list of grid shapes and parameter values.  Made only once every
   stencil passed the bounds certificate. *)
type spec = {
  forms : (Exec.form * (Native.t * int)) array;  (* each with its native function *)
  steps : sstep array array array;  (* per wave, per task *)
}

(* One process-wide table, keyed by kernel, grid shapes and parameter
   bits, and bounded like the server's parse cache: FIFO eviction at a
   fixed capacity.  A bound instance holds its own specialisation, so
   eviction only costs a later bind a re-specialise. *)
type key = int * Sf_util.Ivec.t array * (string * int64) list

let spec_capacity = 64
let specs : (key, spec) Hashtbl.t = Hashtbl.create spec_capacity
let spec_order : key Queue.t = Queue.create ()
let spec_mu = Mutex.create ()
let next_kid = Atomic.make 0

let specialised key make =
  match Mutex.protect spec_mu (fun () -> Hashtbl.find_opt specs key) with
  | Some sp -> sp
  | None ->
      let sp = make () in
      Mutex.protect spec_mu (fun () ->
          match Hashtbl.find_opt specs key with
          | Some first -> first
          | None ->
              if Queue.length spec_order >= spec_capacity then
                Hashtbl.remove specs (Queue.pop spec_order);
              Hashtbl.add specs key sp;
              Queue.push key spec_order;
              sp)

let specialise ~tier ~shape ~grid_names ~shapes ~params group waves =
  let index g = Array.find_index (String.equal g) grid_names in
  let grid_shape g = Option.map (Array.get shapes) (index g) in
  List.iter (Exec.validate_shapes ~grid_shape ~shape) (Group.stencils group);
  let stencils =
    if tier = Interp then [||]
    else
      Array.to_list waves
      |> List.concat_map (fun w -> List.concat (Array.to_list w.tasks))
      |> members |> Array.of_list
  in
  let grid g = Option.get (index g) in
  let forms =
    Array.map (fun s -> Exec.form ~shape ~grid ~shapes ~params:(params s) s) stencils
  in
  (* the forms print as one module: function [i] is form [i]'s *)
  let native = lazy (Native.make (Array.map Exec.native_form forms)) in
  let step (s, rect) =
    if Domain.is_empty rect then None
    else if tier = Interp then Some (Walk (s, rect))
    else
      let i = Option.get (Array.find_index (( == ) s) stencils) in
      Some (Tile (i, Exec.geometry forms.(i) rect))
  in
  {
    forms = Array.mapi (fun i f -> (f, (Lazy.force native, i))) forms;
    steps =
      Array.map
        (fun w -> Array.map (fun t -> Array.of_list (List.filter_map step t)) w.tasks)
        waves;
  }

(* ------------------------------------------------------------ executor *)

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
  let kid = Atomic.fetch_and_add next_kid 1 in
  let grid_names = Array.of_list (Group.grids plan.group) in
  (* per bind: the meshes' shapes and the parameters pick a specialisation
     (made, and certified, on first sight); the instance attaches the
     meshes' data to it *)
  let bind ?(params = []) grids =
    let meshes =
      Array.map
        (fun g ->
          match Sf_mesh.Grids.find_opt grids g with
          | Some m -> m
          | None -> invalid_arg (Printf.sprintf "Grids.find: unbound grid %S" g))
        grid_names
    in
    let shapes = Array.map Sf_mesh.Mesh.shape meshes in
    let lookup (s : Stencil.t) =
      Kernel.param_lookup ~loc:(Srcloc.stencil ~group:glabel s.Stencil.label) params
    in
    let key = (kid, shapes, List.map (fun (p, v) -> (p, Int64.bits_of_float v)) params) in
    let spec =
      specialised key (fun () ->
          specialise ~tier ~shape ~grid_names ~shapes ~params:lookup plan.group waves)
    in
    let data = Array.map Sf_mesh.Mesh.data meshes in
    let forms = Array.map (fun (f, _) -> Exec.attach f data) spec.forms in
    (* the instance keeps these meshes, whatever [grids] binds later *)
    let grids =
      if tier = Compiled then grids
      else
        Sf_mesh.Grids.of_list
          (Array.to_list (Array.map2 (fun g m -> (g, m)) grid_names meshes))
    in
    let task steps =
      let run = function
        | Tile (i, geom) -> Exec.run_tile (snd spec.forms.(i)) forms.(i) geom
        | Walk (s, rect) -> Exec.run_rect_interp grids ~params:(lookup s) s rect
      in
      match steps with
      | [| st |] -> fun () -> run st
      | _ -> fun () -> Array.iter run steps
    in
    let runs = Array.map (Array.map task) spec.steps in
    fun () -> Array.iteri (if Trace.on () then traced_wave else run_wave) runs
  in
  Kernel.make ~name:glabel ~backend:plan.backend
    ~description:plan.description bind
