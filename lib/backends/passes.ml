open Snowflake
open Sf_analysis

let read_later output rest =
  List.exists (fun s -> List.mem output (Stencil.grids_read s)) rest

let fuse_pass ~shape ~live group =
  let rec go = function
    | s1 :: s2 :: rest
      when Schedule.can_fuse ~shape s1 s2
           && (not (read_later s1.Stencil.output rest))
           &&
           (String.equal s1.Stencil.output s2.Stencil.output
           ||
           match live with
           | None -> false
           | Some live -> not (List.mem s1.Stencil.output live)) ->
        (* the fused stencil may itself fuse with what follows *)
        go (Schedule.fuse s1 s2 :: rest)
    | s :: rest -> s :: go rest
    | [] -> []
  in
  let fused = go (Group.stencils group) in
  if List.length fused = Group.length group then group
  else Group.make ~label:(group.Group.label ^ "_fused") fused

let optimize (cfg : Config.t) ~shape group =
  let group, live =
    match cfg.Config.dce with
    | Config.No_dce -> (group, None)
    | Config.Dce live -> (Schedule.eliminate_dead ~shape ~live group, Some live)
  in
  if cfg.Config.inline_producers then fuse_pass ~shape ~live group else group
