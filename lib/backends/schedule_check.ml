open Snowflake
open Sf_analysis

type conflict = {
  first : int;
  second : int;
  first_label : string;
  second_label : string;
  grid : string;
  kind : string;
}

(* (grid, lattice) pairs grouped by grid; a task touching a grid through
   several steps or maps contributes the union of all their images *)
let by_grid pairs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (g, lat) ->
      match Hashtbl.find_opt tbl g with
      | Some lats -> lats := lat :: !lats
      | None -> Hashtbl.add tbl g (ref [ lat ]))
    pairs;
  tbl

let writes_of (task : Plan.task) =
  by_grid
    (List.map
       (fun ((s : Stencil.t), tile) ->
         (s.Stencil.output, Footprint.affine_image s.Stencil.out_map tile))
       task)

let reads_of (task : Plan.task) =
  by_grid
    (List.concat_map
       (fun (s, tile) ->
         List.map
           (fun (g, m) -> (g, Footprint.affine_image m tile))
           (Stencil.reads s))
       task)

(* Exhaustive conflict collection.  Tasks are bucketed on grid name first:
   every conflict involves some task's *written* grid, so only
   writer x writer and writer x reader pairs of the same grid ever reach
   the (expensive) lattice intersection.  Steps inside one task run in
   order, so intra-task overlap is never a conflict. *)
let wave_conflicts (tasks : Plan.task array) =
  if Array.length tasks < 2 then []
  else begin
    let writes = Array.map writes_of tasks in
    let reads = Array.map reads_of tasks in
    let lats tbl g = !(Hashtbl.find tbl g) in
    let bucket per_task =
      let tbl : (string, int list) Hashtbl.t = Hashtbl.create 16 in
      for i = Array.length tasks - 1 downto 0 do
        Hashtbl.iter
          (fun g _ ->
            Hashtbl.replace tbl g
              (i :: Option.value ~default:[] (Hashtbl.find_opt tbl g)))
          per_task.(i)
      done;
      tbl
    in
    let writers = bucket writes and readers = bucket reads in
    let conflicts = ref [] in
    let add i j grid kind =
      let i, j, kind =
        if i < j then (i, j, kind) else (j, i, "read/write")
      in
      conflicts :=
        {
          first = i;
          second = j;
          first_label = Plan.task_label tasks.(i);
          second_label = Plan.task_label tasks.(j);
          grid;
          kind;
        }
        :: !conflicts
    in
    Hashtbl.iter
      (fun g ws ->
        let rec ww = function
          | [] -> ()
          | i :: rest ->
              List.iter
                (fun j ->
                  if
                    Footprint.lattice_lists_intersect (lats writes.(i) g)
                      (lats writes.(j) g)
                  then add i j g "write/write")
                rest;
              ww rest
        in
        ww ws;
        (* writer against every reader of the same grid *)
        List.iter
          (fun w ->
            List.iter
              (fun r ->
                if
                  r <> w
                  && Footprint.lattice_lists_intersect (lats writes.(w) g)
                       (lats reads.(r) g)
                then add w r g "write/read")
              (Option.value ~default:[] (Hashtbl.find_opt readers g)))
          ws)
      writers;
    List.sort_uniq compare !conflicts
  end

let conflict_to_string c =
  Printf.sprintf "tasks %d (%s) and %d (%s) conflict: %s on grid %s" c.first
    c.first_label c.second c.second_label c.kind c.grid

(* ------------------------------------------------------- certification *)

let stencil_index group label =
  let rec find i = function
    | [] -> None
    | (s : Stencil.t) :: rest ->
        if String.equal s.Stencil.label label then Some i else find (i + 1) rest
  in
  find 0 (Group.stencils group)

let stencil_loc group label =
  match stencil_index group label with
  | Some index -> Srcloc.stencil ~group:group.Group.label ~index label
  | None -> Srcloc.stencil ~group:group.Group.label label

let certify (config : Config.t) (plan : Plan.t) =
  let group = plan.Plan.group and bname = plan.Plan.backend in
  let overrides =
    List.filter_map
      (fun label ->
        match stencil_index group label with
        | None -> None
        | Some index ->
            let s = List.nth (Group.stencils group) index in
            if Dependence.point_parallel ~shape:plan.Plan.shape s then None
            else
              Some
                (Diagnostics.make ~code:"SF022"
                   ~severity:Diagnostics.Warning
                   ~loc:
                     (Srcloc.stencil ~group:group.Group.label ~index label)
                   ~hint:
                     "remove the label from Config.force_parallel unless \
                      the race is provably benign"
                   (Printf.sprintf
                      "stencil is forced parallel although the analysis \
                       found loop-carried dependences; the %s plan tiles it \
                       concurrently"
                      bname)))
      (List.sort_uniq String.compare config.Config.force_parallel)
  in
  (* each conflict of the executed plan, once: a pair involving a fused
     task is a fusion error (SF023), any other an intra-wave race (SF021)
     located at its stencil *)
  let race w tasks c =
    let fused i = List.length (Plan.members tasks.(i)) > 1 in
    if fused c.first || fused c.second then
      Diagnostics.make ~code:"SF023" ~severity:Diagnostics.Error
        ~loc:(Srcloc.group group.Group.label)
        ~hint:
          "the cluster is not cofusible under this configuration; disable \
           fusion for this group or split the cluster"
        (Printf.sprintf "%s fused plan, wave %d: %s" bname w
           (conflict_to_string c))
    else
      Diagnostics.make ~code:"SF021" ~severity:Diagnostics.Error
        ~loc:(stencil_loc group c.first_label)
        ~hint:
          "the tasks need a barrier between them; if a \
           Config.force_parallel override is set, it is wrong"
        (Printf.sprintf "%s plan, wave %d: %s" bname w (conflict_to_string c))
  in
  let races =
    List.concat
      (List.mapi
         (fun w (wave : Plan.wave) ->
           List.map (race w wave.Plan.tasks)
             (wave_conflicts wave.Plan.tasks))
         plan.Plan.waves)
  in
  overrides @ races

(* ------------------------------------------------ time-tile certification *)

let certify_timetile _config ~shape group =
  List.map
    (fun (label, reason) ->
      Diagnostics.make ~code:"SF025" ~severity:Diagnostics.Error
        ~loc:(stencil_loc group label)
        ~hint:
          "time-tiling needs identity writes, point-parallel sub-steps and \
           unit-scale reads of group-written grids; run the smoother \
           untiled (Config.time_tile = 1)"
        (Printf.sprintf "group cannot be time-tiled: stencil %s" reason))
    (Timetile.illegalities ~shape group)

let certify_timetile_plan config ~shape (p : Timetile.plan) =
  let base = certify_timetile config ~shape p.Timetile.group in
  let req = Timetile.required_skew p.Timetile.group in
  if p.Timetile.skew >= req then base
  else
    Diagnostics.make ~code:"SF024" ~severity:Diagnostics.Error
      ~loc:(Srcloc.group p.Timetile.group.Group.label)
      ~hint:
        (Printf.sprintf "raise the skew to at least %d (the maximum axis-0 \
                         dependence distance of the group)" req)
      (Printf.sprintf
         "time-tile skew %d is below the dependence slope %d: slab seams \
          would read stale or future values"
         p.Timetile.skew req)
    :: base
