open Sf_util

type t = { label : string; stencils : Stencil.t list }

let counter = ref 0

let make ?label stencils =
  (match stencils with
  | [] -> invalid_arg "Group.make: empty group"
  | s0 :: rest ->
      let n = Stencil.dims s0 in
      List.iter
        (fun s ->
          if Stencil.dims s <> n then
            invalid_arg "Group.make: stencils of differing rank")
        rest);
  let label =
    match label with
    | Some l -> l
    | None ->
        incr counter;
        Printf.sprintf "group_%d" !counter
  in
  { label; stencils }

let stencils t = t.stencils
let length t = List.length t.stencils

let dims t =
  match t.stencils with s :: _ -> Stencil.dims s | [] -> assert false

let append a b = make ~label:(a.label ^ "+" ^ b.label) (a.stencils @ b.stencils)

let grids t =
  List.concat_map Stencil.grids t.stencils |> List.sort_uniq String.compare

let outputs t =
  List.map (fun s -> s.Stencil.output) t.stencils
  |> List.sort_uniq String.compare

let params t =
  List.concat_map (fun s -> Expr.params s.Stencil.expr) t.stencils
  |> List.sort_uniq String.compare

let equal a b =
  List.length a.stencils = List.length b.stencils
  && List.for_all2 Stencil.equal a.stencils b.stencils

let hash t = Hashc.list Stencil.hash t.stencils

let pp ppf t =
  Format.fprintf ppf "@[<v 2>group %s:@ %a@]" t.label
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Stencil.pp)
    t.stencils
