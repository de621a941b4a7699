open Sf_mesh

type instance = unit -> unit

type t = {
  name : string;
  backend : string;
  description : string;
  bind : ?params:(string * float) list -> Grids.t -> instance;
  run : ?params:(string * float) list -> Grids.t -> unit;
}

let make ~name ~backend ?(description = "") bind =
  let run ?params grids = bind ?params grids () in
  { name; backend; description; bind; run }

let param_lookup ?loc bindings p =
  match List.assoc_opt p bindings with
  | Some v -> v
  | None ->
      let where =
        match loc with
        | Some l -> " in " ^ Snowflake.Srcloc.to_string l
        | None -> ""
      in
      invalid_arg (Printf.sprintf "kernel: unbound parameter %S%s" p where)
