(* Cross-wave sweep fusion (ROADMAP item 2; Devito-style sweep merging).

   The wave scheduler barriers between dependent stencils, so a chain of
   cheap pointwise stencils re-reads its grids once per stencil.  This
   pass partitions a group into *clusters* of provably cofusible stencils;
   a backend executes a cluster as per-tile multi-stencil tasks — each
   tile runs every member in program order — so the cluster makes one
   pass over its grids.

   Legality (cofusibility) of a multi-member cluster: members share one
   domain, every member writes through the identity out_map, every member
   is point-parallel on its own, and every read of a grid that *any*
   member writes is through the identity map.  Under those conditions a
   tile's writes and its reads of cluster-written grids are exactly the
   tile's own lattice points, so distinct tiles touch disjoint cells of
   every cluster-written grid: tile tasks are race-free under any
   interleaving, and per-tile member order reproduces the sequential
   program order cell-for-cell.  GSRB's colour sweeps (reads at +-1 of
   the grid the other colour writes) are correctly rejected; pipelines
   whose members consume upstream grids at offsets but each other only
   pointwise (e.g. blur_y + sharpen of the unsharp pipeline) fuse. *)

open Snowflake
open Sf_analysis

type cluster = { members : Stencil.t list }

let member_ok cfg ~shape (s : Stencil.t) =
  Affine.is_identity s.Stencil.out_map
  && (Dependence.point_parallel ~shape s
     || List.mem s.Stencil.label cfg.Config.force_parallel)

(* every read of a cluster-written grid must be pointwise *)
let identity_reads outputs (s : Stencil.t) =
  List.for_all
    (fun (g, m) -> (not (List.mem g outputs)) || Affine.is_identity m)
    (Stencil.reads s)

let cofusible cfg ~shape (members : Stencil.t list) (s : Stencil.t) =
  match members with
  | [] -> true
  | first :: _ ->
      Domain.equal first.Stencil.domain s.Stencil.domain
      && List.for_all (member_ok cfg ~shape) (s :: members)
      && begin
           let outputs =
             List.sort_uniq String.compare
               (s.Stencil.output
               :: List.map (fun (m : Stencil.t) -> m.Stencil.output) members)
           in
           List.for_all (identity_reads outputs) (s :: members)
         end

let singletons group =
  List.map (fun s -> { members = [ s ] }) (Group.stencils group)

let partition cfg ~shape group =
  if not cfg.Config.fusion then singletons group
  else begin
    (* greedy left-to-right clustering over program order: a stencil joins
       the open cluster when cofusible with every member, else it opens a
       new one — so the partition concatenates back to the group *)
    let flush acc current =
      match current with [] -> acc | ms -> { members = List.rev ms } :: acc
    in
    let acc, current =
      List.fold_left
        (fun (acc, current) s ->
          if cofusible cfg ~shape (List.rev current) s then (acc, s :: current)
          else (flush acc current, [ s ]))
        ([], []) (Group.stencils group)
    in
    List.rev (flush acc current)
  end

(* Greedy barrier placement over clusters, mirroring
   [Schedule.greedy_waves] at cluster granularity: a cluster joins the
   current wave unless some member depends on a member of a cluster
   already in it. *)
let waves ~shape clusters =
  let arr = Array.of_list clusters in
  let depends i j =
    (* does cluster j depend on cluster i (i before j)? *)
    List.exists
      (fun before ->
        List.exists
          (fun after -> Dependence.depends ~shape ~before ~after)
          arr.(j).members)
      arr.(i).members
  in
  let waves = ref [] and current = ref [] in
  for j = 0 to Array.length arr - 1 do
    if List.exists (fun i -> depends i j) !current then begin
      waves := List.rev !current :: !waves;
      current := [ j ]
    end
    else current := j :: !current
  done;
  if !current <> [] then waves := List.rev !current :: !waves;
  List.rev !waves

let fused_count clusters =
  List.fold_left
    (fun acc c -> if List.length c.members > 1 then acc + 1 else acc)
    0 clusters

let describe clusters =
  clusters
  |> List.map (fun c ->
         "["
         ^ String.concat "+"
             (List.map (fun (s : Stencil.t) -> s.Stencil.label) c.members)
         ^ "]")
  |> String.concat ""
