(* The OpenCL-style micro-compiler (paper §IV.B).

   Each stencil becomes one NDRange "kernel enqueue" on an in-order queue:
   a barrier separates consecutive stencils (no cross-stencil overlap,
   matching the backend the paper describes).  The NDRange is decomposed
   with tall-skinny blocking: 2-D tiles of the innermost two axes, each
   tile rolled upward through the full extent of the outer axes; every tile
   is a work-group, farmed to the pool's compute units.  Stencils that are
   not point-parallel degrade to a single sequential work-item.

   Under Config.fusion, a multi-member cluster becomes ONE enqueue: its
   work-groups each run the members in program order over their tile, a
   "mega-kernel" making a single pass over the cluster's grids.  The
   in-order queue still barriers between cluster enqueues. *)

open Snowflake

let lower (cfg : Config.t) ~shape (group : Group.t) =
  let clusters = Fusion.partition cfg ~shape group in
  let fused = Fusion.fused_count clusters in
  let workers = Pool.workers (Pool.create ~workers:cfg.Config.workers) in
  let rows, cols = cfg.Config.tall_skinny in
  let description =
    if fused = 0 then
      Printf.sprintf
        "opencl: %d enqueue(s); tall-skinny %dx%d; %d compute unit(s)"
        (List.length clusters) rows cols workers
    else
      Printf.sprintf
        "opencl+fusion: %d stencil(s) as %d enqueue(s); tall-skinny %dx%d; \
         %d compute unit(s); partition %s"
        (Group.length group) (List.length clusters) rows cols workers
        (Fusion.describe clusters)
  in
  let members = List.map (fun (c : Fusion.cluster) -> c.Fusion.members) clusters in
  (* each enqueue is a wave: the in-order queue barriers between them *)
  Plan.make ~backend:"opencl" ~shape ~description
    ~cost:(Costing.of_clusters ~shape members)
    group
    (List.map
       (Plan.cluster_tasks cfg ~shape
          ~split:(Tiling.tall_skinny ~tile:cfg.Config.tall_skinny))
       members)
