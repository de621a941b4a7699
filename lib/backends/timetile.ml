(* Temporal blocking of k consecutive group applications (ROADMAP item 2).

   A multigrid smoother applies the same group k times back-to-back, and
   each application streams the whole level — k passes of memory traffic
   for k sweeps.  This pass flattens the k applications into m = k * len
   *sub-steps* (rep-major program order), blocks the outermost axis into
   slabs of [block] points, and skews sub-step q's slab window down by
   sigma_q = q * skew:

     sub-step q on block b covers axis-0 in [b*block - q*skew,
                                             (b+1)*block - q*skew)

   executed b-ascending outer, q-ascending inner.  With [skew] at least
   the maximum |axis-0 offset| of any unit-scale read of a group-written
   grid, a floor-inequality argument shows that when (b, q) runs, every
   earlier sub-step has already written all cells q reads, and no later
   sub-step has touched them — for ANY block size.  Legality additionally
   requires identity out_maps, unit-scale reads of written grids, and
   per-sub-step point-parallelism (so slab order inside a sub-step is
   unobservable); under those conditions the time-tiled execution is
   bitwise identical to k sequential applications, while the k sweeps
   walk each slab column k times in cache — ~one pass of DRAM traffic
   ([Costing.of_timetile] is the matching analytic model).

   A plan whose skew is *below* the dependence slope reads stale (or
   future) values at slab seams; [Schedule_check.certify_timetile_plan]
   rejects such plans as SF024 before they ever reach a backend. *)

open Snowflake
open Sf_analysis

type plan = { group : Group.t; reps : int; block : int; skew : int }

let required_skew group =
  let written = Group.outputs group in
  List.fold_left
    (fun acc (s : Stencil.t) ->
      List.fold_left
        (fun acc (g, (m : Affine.t)) ->
          if List.mem g written && Affine.is_unit_scale m then
            max acc (abs m.Affine.offset.(0))
          else acc)
        acc (Stencil.reads s))
    0 (Group.stencils group)

(* Why each sub-step must be legal: identity writes keep every sub-step's
   write set equal to its slab; unit-scale reads of written grids bound
   the dependence slope by a constant the skew can cover; and
   point-parallelism makes the order of a sub-step's slabs (and of the
   union rects within a slab) unobservable. *)
let illegalities ~shape group =
  let written = Group.outputs group in
  List.concat_map
    (fun (s : Stencil.t) ->
      let label = s.Stencil.label in
      let errs =
        if Affine.is_identity s.Stencil.out_map then []
        else [ (label, "writes through a non-identity out_map") ]
      in
      let errs =
        if Dependence.point_parallel ~shape s then errs
        else (label, "is not point-parallel") :: errs
      in
      let errs =
        List.fold_left
          (fun errs (g, m) ->
            if List.mem g written && not (Affine.is_unit_scale m) then
              ( label,
                Printf.sprintf "reads group-written grid %s at non-unit scale"
                  g )
              :: errs
            else errs)
          errs (Stencil.reads s)
      in
      List.rev errs)
    (Group.stencils group)

let legal ~shape group = illegalities ~shape group = []

let auto_block ~shape = max 8 (shape.(0) / 4)

let plan ?skew ?block (cfg : Config.t) ~shape ~reps group =
  if reps < 2 || not (legal ~shape group) then None
  else begin
    let skew = match skew with Some s -> s | None -> required_skew group in
    let block =
      match block with
      | Some b -> max 1 b
      | None ->
          if cfg.Config.time_block > 0 then cfg.Config.time_block
          else auto_block ~shape
    in
    Some { group; reps; block; skew }
  end

let nsubsteps p = p.reps * Group.length p.group

let nblocks p ~shape =
  let sigma_max = (nsubsteps p - 1) * p.skew in
  (shape.(0) + sigma_max + p.block - 1) / p.block

let describe p =
  Printf.sprintf "time depth %d (block %d, skew %d)" p.reps p.block p.skew

(* slab schedule, fixed per (shape, plan): one wave per slab column, each
   a single task of the non-empty sub-step clips in ascending sub-step
   order.  Slab columns run sequentially, so determinism (and bitwise
   agreement with k plain applications) holds at any worker count by
   construction. *)
let lower ~shape (p : plan) =
  let members = Array.of_list (Group.stencils p.group) in
  let nmem = Array.length members in
  let rects =
    Array.map (fun s -> Domain.resolve ~shape s.Stencil.domain) members
  in
  let nb = nblocks p ~shape in
  let column b =
    let lo0 = b * p.block in
    let hi0 = lo0 + p.block in
    List.concat
      (List.init (nsubsteps p) (fun q ->
           let j = q mod nmem in
           let sigma = q * p.skew in
           List.filter_map
             (fun r ->
               Option.map
                 (fun clip -> (members.(j), clip))
                 (Tiling.clip_axis ~axis:0 ~lo:(lo0 - sigma) ~hi:(hi0 - sigma) r))
             rects.(j)))
  in
  Plan.make ~backend:"timetile" ~shape
    ~description:
      (Printf.sprintf
         "timetile: %d rep(s) x %d sub-step(s), block %d on axis 0, skew %d, \
          %d slab column(s); sequential"
         p.reps nmem p.block p.skew nb)
    ~cost:(Costing.of_timetile ~shape ~reps:p.reps p.group)
    p.group
    (List.init nb (fun b -> [ column b ]))
