open Sf_util
open Sf_backends

let tile_candidates ~dims ~n =
  let cube size = Some (List.init dims (fun _ -> min size n)) in
  let skew () =
    (* small outer tiles, full-depth innermost axis: the tall-skinny idea *)
    Some (List.init dims (fun i -> if i = dims - 1 then n else min 8 n))
  in
  [ None; cube 4; cube 8; cube 16; skew () ]

type result = { config : Config.t; time : float }

let default_candidates ~dims ~n =
  List.concat_map
    (fun tile ->
      List.map
        (fun multicolor -> { Config.default with tile; multicolor })
        [ false; true ])
    (tile_candidates ~dims ~n)

let evaluate ?candidates ?(repeats = 2) ~backend ~shape ~params ~grids group =
  let candidates =
    match candidates with
    | Some cs -> cs
    | None ->
        let dims = Ivec.dims shape in
        default_candidates ~dims ~n:shape.(0)
  in
  (match candidates with
  | [] -> invalid_arg "Tune.evaluate: empty candidate list"
  | _ -> ());
  List.map
    (fun config ->
      let kernel = Jit.compile ~config backend ~shape group in
      let time =
        Timer.time ~warmup:1 ~repeats (kernel.Kernel.bind ~params grids)
      in
      { config; time })
    candidates

let best ?candidates ?repeats ~backend ~shape ~params ~grids group =
  let results = evaluate ?candidates ?repeats ~backend ~shape ~params ~grids group in
  List.fold_left
    (fun acc r -> match acc with Some b when b.time <= r.time -> acc | _ -> Some r)
    None results
  |> Option.get
