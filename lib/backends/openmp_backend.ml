(* The OpenMP-style micro-compiler (paper §IV.A).

   Lowering: the group's stencils are partitioned into waves by the greedy
   barrier-placement (or by DAG levels); each point-parallel stencil is
   split into subtasks (explicit tiles, or outer-axis chunks); a wave's
   tasks are farmed to the pool and joined — the join is the OpenMP
   barrier.  Stencils the analysis cannot prove point-parallel run as a
   single sequential task, preserving the in-place sequential semantics
   while still overlapping with independent stencils of the same wave.
   Waves below the configured point-count cutoff run inline on the calling
   domain (coarse multigrid levels are cheaper serial than dispatched).

   Under Config.fusion, waves are placed at cluster granularity and a
   multi-member cluster becomes one task per shared tile, running its
   members in program order over that tile — a single pass over the
   cluster's grids.  A singleton cluster is the unfused stencil plan.
   Legality is Fusion.cofusible, and Jit re-proves the executed plan
   race-free under Config.certify. *)

open Snowflake
open Sf_analysis

let waves_of cfg ~shape group =
  match cfg.Config.schedule with
  | Config.Greedy_waves -> Schedule.greedy_waves ~shape group
  | Config.Dag_levels -> Schedule.dag_waves (Schedule.build_dag ~shape group)

let split (cfg : Config.t) r =
  match cfg.Config.tile with
  | Some t -> Tiling.split ~tile:t r
  | None -> Tiling.split_outer ~chunks:cfg.Config.chunks r

let lower (cfg : Config.t) ~shape (group : Group.t) =
  let clusters = Fusion.partition cfg ~shape group in
  let fused = Fusion.fused_count clusters in
  let waves =
    if fused = 0 then waves_of cfg ~shape group
    else Fusion.waves ~shape clusters
  in
  let tasks =
    Array.of_list
      (List.map
         (fun (c : Fusion.cluster) ->
           Plan.cluster_tasks cfg ~shape ~split:(split cfg) c.Fusion.members)
         clusters)
  in
  let workers = Pool.workers (Pool.create ~workers:cfg.Config.workers) in
  let description =
    if fused = 0 then
      Format.asprintf "openmp: %d stencil(s) in %d wave(s); %d worker(s)@ %a"
        (Group.length group) (List.length waves) workers Schedule.pp_waves
        waves
    else
      Printf.sprintf
        "openmp+fusion: %d stencil(s) as %d cluster(s) in %d wave(s); %d \
         worker(s); partition %s"
        (Group.length group) (List.length clusters) (List.length waves)
        workers (Fusion.describe clusters)
  in
  Plan.make ~backend:"openmp" ~shape ~description
    ~cost:
      (Costing.of_clusters ~shape
         (List.map (fun (c : Fusion.cluster) -> c.Fusion.members) clusters))
    group
    (List.map (List.concat_map (fun ci -> tasks.(ci))) waves)
