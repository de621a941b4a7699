open Sf_util
open Sf_mesh
open Snowflake

type grid_spec = { gname : string; gshape : Ivec.t; gseed : int }

type spec = {
  label : string;
  seed : int;
  shape : Ivec.t;
  group : Group.t;
  grids : grid_spec list;
  params : (string * float) list;
}

let iv = Ivec.of_list

(* ------------------------------------------------------------ utilities *)

module R = Random.State

let pick st xs = List.nth xs (R.int st (List.length xs))

let weighted st choices =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 choices in
  let roll = R.int st total in
  let rec go acc = function
    | [] -> assert false
    | (w, x) :: rest -> if roll < acc + w then x else go (acc + w) rest
  in
  go 0 choices

let range st lo hi = lo + R.int st (hi - lo + 1) (* inclusive *)

(* ------------------------------------------------------- grid environment *)

(* Grids are recorded as they are invented; [readable] tracks the subset
   whose shape equals the iteration shape (the only ones a unit-scale read
   may target). *)
type env = {
  st : R.t;
  shape : Ivec.t;
  mutable recorded : grid_spec list;
  mutable readable : string list;
  mutable fresh : int;
}

let record env ~name ~shape ~seed ~unit_readable =
  if not (List.exists (fun g -> g.gname = name) env.recorded) then
    env.recorded <- { gname = name; gshape = shape; gseed = seed } :: env.recorded;
  if unit_readable && not (List.mem name env.readable) then
    env.readable <- env.readable @ [ name ]

let fresh_name env prefix =
  env.fresh <- env.fresh + 1;
  Printf.sprintf "%s%d" prefix env.fresh

(* ----------------------------------------------------------- domains *)

(* Per-axis slack of a domain: how far a unit-scale read may reach without
   escaping an iteration-shaped grid.  Computed on the resolved lattice, so
   face rects (which hug one boundary) get asymmetric slack. *)
let offset_slack ~shape domain =
  let d = Ivec.dims shape in
  let lo_slack = Array.make d 0 and hi_slack = Array.make d 0 in
  let first = ref true in
  List.iter
    (fun (r : Domain.resolved) ->
      if not (Domain.is_empty r) then begin
        let counts = Domain.counts r in
        Array.iteri
          (fun a _ ->
            let minpt = r.Domain.rlo.(a) in
            let maxpt = minpt + ((counts.(a) - 1) * r.Domain.rstride.(a)) in
            let lo = -minpt and hi = shape.(a) - 1 - maxpt in
            if !first then begin
              lo_slack.(a) <- lo;
              hi_slack.(a) <- hi
            end
            else begin
              lo_slack.(a) <- max lo_slack.(a) lo;
              hi_slack.(a) <- min hi_slack.(a) hi
            end)
          counts;
        first := false
      end)
    (Domain.resolve ~shape domain);
  (lo_slack, hi_slack)

let interior_domain env =
  let g = range env.st 1 2 in
  Domain.interior (Ivec.dims env.shape) ~ghost:g

let colored_domain env =
  let d = Ivec.dims env.shape in
  Domain.colored d ~ghost:1 ~color:(R.int env.st 2) ~ncolors:2

let strided_domain env =
  let d = Ivec.dims env.shape in
  let lo = List.init d (fun _ -> range env.st 1 2) in
  let hi = List.map (fun g -> -g) lo in
  let stride = List.init d (fun _ -> range env.st 1 3) in
  Domain.of_rect (Domain.rect ~stride ~lo ~hi ())

(* Two boxes split along one axis at an interior plane — disjoint by
   construction (see the .mli on why unions stay overlap-free). *)
let union_domain env =
  let d = Ivec.dims env.shape in
  let axis = R.int env.st d in
  let extent = env.shape.(axis) in
  let mid = 1 + ((extent - 2) / 2) in
  let lo k = List.init d (fun a -> if a = axis then k else 1) in
  let hi k = List.init d (fun a -> if a = axis then k else -1) in
  let box l h = Domain.rect ~lo:(lo l) ~hi:(hi h) () in
  Domain.union (Domain.of_rect (box 1 mid)) (Domain.of_rect (box mid (-1)))

let face_domain env =
  let d = Ivec.dims env.shape in
  let axis = R.int env.st d in
  let low_side = R.bool env.st in
  let lo = List.init d (fun a -> if a = axis then (if low_side then 0 else -1) else 1) in
  let hi = List.init d (fun a -> if a = axis then (if low_side then 1 else 0) else -1) in
  Domain.of_rect (Domain.rect ~lo ~hi ())

let gen_domain env =
  weighted env.st
    [
      (4, interior_domain);
      (2, colored_domain);
      (2, strided_domain);
      (2, union_domain);
      (1, face_domain);
    ]
    env

(* ------------------------------------------------------- expressions *)

let param_pool = [ "alpha"; "beta" ]

let gen_weight st =
  if R.int st 6 = 0 then Expr.param (pick st param_pool)
  else
    let w = -2. +. R.float st 4. in
    Expr.const (if Float.abs w < 0.05 then 0.25 else w)

let gen_offset st (lo_slack, hi_slack) =
  Array.to_list
    (Array.mapi
       (fun a lo ->
         let lo = max lo (-2) and hi = min hi_slack.(a) 2 in
         range st lo hi)
       lo_slack)

(* A component term: a small sparse weight array gathered over one grid. *)
let gen_component env slack grid =
  let taps = range env.st 1 4 in
  let alist =
    List.init taps (fun _ -> (gen_offset env.st slack, gen_weight env.st))
  in
  Component.to_expr ~grid (Weights.of_alist alist)

let gen_term env slack =
  let tap grid = Expr.read grid (iv (gen_offset env.st slack)) in
  weighted env.st
    [
      (4, fun () -> gen_component env slack (pick env.st env.readable));
      (3, fun () -> tap (pick env.st env.readable));
      (1, fun () -> Expr.param (pick env.st param_pool));
      (1, fun () -> Expr.const (-1. +. R.float env.st 2.));
    ]
    ()

let gen_expr env slack =
  let n = range env.st 1 3 in
  let body =
    List.fold_left
      (fun acc _ ->
        let t = gen_term env slack in
        if R.bool env.st then Expr.(acc +: t) else Expr.(acc -: t))
      (gen_term env slack)
      (List.init (n - 1) Fun.id)
  in
  match R.int env.st 5 with
  | 0 -> Expr.(body *: const (0.25 +. R.float env.st 1.5))
  | 1 -> Expr.(body /: const (0.5 +. R.float env.st 1.5))
  | 2 -> Expr.(body *: param (pick env.st param_pool))
  | 3 -> Expr.neg body
  | _ -> body

(* --------------------------------------------------------- stencil kinds *)

let out_of_place env i =
  let domain = gen_domain env in
  let slack = offset_slack ~shape:env.shape domain in
  let expr = gen_expr env slack in
  let out = fresh_name env "t" in
  let s =
    Stencil.make ~label:(Printf.sprintf "s%d" i) ~output:out ~expr ~domain ()
  in
  record env ~name:out ~shape:env.shape ~seed:(-1) ~unit_readable:true;
  [ s ]

let in_place env i =
  let out = pick env.st env.readable in
  let domain = gen_domain env in
  let slack = offset_slack ~shape:env.shape domain in
  let expr = gen_expr env slack in
  [ Stencil.make ~label:(Printf.sprintf "s%d" i) ~output:out ~expr ~domain () ]

(* A red/black pair over a fresh random-initialised grid — the GSRB
   pattern, in-place but race-free under wave scheduling. *)
let colored_pair env i =
  let m = fresh_name env "m" in
  record env ~name:m ~shape:env.shape ~seed:(R.int env.st 10_000)
    ~unit_readable:true;
  let d = Ivec.dims env.shape in
  let mk color =
    let domain = Domain.colored d ~ghost:1 ~color ~ncolors:2 in
    let slack = offset_slack ~shape:env.shape domain in
    let expr =
      Expr.(
        gen_component env slack m
        +: (gen_term env slack *: const (0.25 +. R.float env.st 0.5)))
    in
    Stencil.make
      ~label:(Printf.sprintf "s%d_c%d" i color)
      ~output:m ~expr ~domain ()
  in
  [ mk 0; mk 1 ]

(* Scale-2 gather from a fresh double-extent input grid — restriction. *)
let restrict env i =
  let d = Ivec.dims env.shape in
  let fine = fresh_name env "fine_f" in
  let fine_shape = Array.map (fun e -> 2 * e) env.shape in
  record env ~name:fine ~shape:fine_shape ~seed:(R.int env.st 10_000)
    ~unit_readable:false;
  let coarse = fresh_name env "t" in
  record env ~name:coarse ~shape:env.shape ~seed:(-1) ~unit_readable:true;
  let hc = List.init d (fun a -> max 2 (env.shape.(a) / 2)) in
  let domain = Domain.of_rect (Domain.rect ~lo:(List.init d (fun _ -> 0)) ~hi:hc ()) in
  let taps = range env.st 1 3 in
  let rd () =
    Expr.read_affine fine
      (Affine.make
         ~scale:(Ivec.make d 2)
         ~offset:(Array.init d (fun _ -> R.int env.st 2)))
  in
  let expr =
    List.fold_left
      (fun acc _ -> Expr.(acc +: rd ()))
      (rd ())
      (List.init (taps - 1) Fun.id)
  in
  let expr = Expr.(expr *: const (1. /. float_of_int (taps + 1))) in
  [ Stencil.make ~label:(Printf.sprintf "s%d" i) ~output:coarse ~expr ~domain () ]

(* Non-identity out_map: iterate the coarse space, write one parity of a
   fresh double-extent grid — interpolation. *)
let interp_out_map env i =
  let d = Ivec.dims env.shape in
  let out = fresh_name env "fine_t" in
  let out_shape = Array.map (fun e -> 2 * e) env.shape in
  record env ~name:out ~shape:out_shape ~seed:(-1) ~unit_readable:false;
  let domain =
    Domain.of_rect
      (Domain.rect
         ~lo:(List.init d (fun _ -> 0))
         ~hi:(Array.to_list env.shape) ())
  in
  (* slack is all-zero over the full rect: centre reads only *)
  let src = pick env.st env.readable in
  let expr =
    Expr.(
      read src (Ivec.zero d)
      *: const (0.5 +. R.float env.st 1.))
  in
  let out_map =
    Affine.make ~scale:(Ivec.make d 2)
      ~offset:(Array.init d (fun _ -> R.int env.st 2))
  in
  [ Stencil.make ~label:(Printf.sprintf "s%d" i) ~output:out ~out_map ~expr ~domain () ]

(* ------------------------------------------------------------ the spec *)

let gen_shape st ~max_dims =
  let d = 1 + R.int st (min max_dims 3) in
  let lo, hi = match d with 1 -> (16, 48) | 2 -> (8, 16) | _ -> (6, 9) in
  Array.init d (fun _ -> range st lo hi)

let gen_once ~seed ~max_dims st =
  let shape = gen_shape st ~max_dims in
  let env = { st; shape; recorded = []; readable = []; fresh = 0 } in
  record env ~name:"u" ~shape ~seed:(R.int st 10_000) ~unit_readable:true;
  if R.int st 10 < 7 then
    record env ~name:"v" ~shape ~seed:(R.int st 10_000) ~unit_readable:true;
  let n_stencils = range st 1 4 in
  let stencils = ref [] in
  let i = ref 0 in
  while List.length !stencils < n_stencils do
    incr i;
    let kind =
      weighted st
        [
          (9, `Out_of_place);
          (3, `In_place);
          (3, `Colored_pair);
          (3, `Restrict);
          (2, `Interp_out_map);
        ]
    in
    let made =
      match kind with
      | `Out_of_place -> out_of_place env !i
      | `In_place -> in_place env !i
      | `Colored_pair -> colored_pair env !i
      | `Restrict -> restrict env !i
      | `Interp_out_map -> interp_out_map env !i
    in
    stencils := !stencils @ made
  done;
  let label = Printf.sprintf "fuzz%d" seed in
  let group = Group.make ~label !stencils in
  let wanted = Group.grids group in
  let grids =
    List.filter (fun g -> List.mem g.gname wanted) (List.rev env.recorded)
  in
  let params =
    List.map (fun p -> (p, 0.5 +. R.float st 1.0)) (Group.params group)
  in
  { label; seed; shape; group; grids; params }

let build_grids ?(fill = 0.) spec =
  Grids.of_list
    (List.map
       (fun g ->
         let m =
           if g.gseed >= 0 then Mesh.random ~seed:g.gseed g.gshape
           else begin
             let m = Mesh.create g.gshape in
             if fill <> 0. then Mesh.fill m fill;
             m
           end
         in
         (g.gname, m))
       spec.grids)

(* Saturating, so a shape whose product overflows reads as too large
   rather than wrapping round to a small count. *)
let grid_cells spec =
  let mul a b = if a <> 0 && b > max_int / a then max_int else a * b in
  let add a b = if a > max_int - b then max_int else a + b in
  let cells g = Array.fold_left (fun p e -> mul p (max 0 e)) 1 g.gshape in
  List.fold_left (fun acc g -> add acc (cells g)) 0 spec.grids

let inputs spec =
  List.filter_map
    (fun g -> if g.gseed >= 0 then Some g.gname else None)
    spec.grids

(* From the declared shapes alone: checking a program builds no grid.  A
   later binding of a name shadows an earlier one, as in [build_grids]. *)
let validate spec =
  let shapes = Hashtbl.create 8 in
  List.iter (fun g -> Hashtbl.replace shapes g.gname g.gshape) spec.grids;
  try
    List.iter
      (fun g ->
        match Mesh.check_shape g.gshape with
        | Error m ->
            invalid_arg
              (Printf.sprintf "grid %S: shape %s: %s" g.gname
                 (Ivec.to_string g.gshape) m)
        | Ok () -> ())
      spec.grids;
    List.iter
      (Sf_backends.Exec.validate_shapes ~grid_shape:(Hashtbl.find_opt shapes)
         ~shape:spec.shape)
      (Group.stencils spec.group);
    Ok ()
  with Invalid_argument msg -> Error msg

let spec ?(max_dims = 3) ~seed () =
  let rec attempt k =
    if k >= 16 then
      invalid_arg
        (Printf.sprintf "Gen.spec: seed %d produced no valid program" seed)
    else
      let st = R.make [| 0x5f00d; seed; k |] in
      match gen_once ~seed ~max_dims st with
      | s -> ( match validate s with Ok () -> s | Error _ -> attempt (k + 1))
      | exception Invalid_argument _ -> attempt (k + 1)
  in
  attempt 0

let restrict_grids spec =
  let wanted = Group.grids spec.group in
  let params_wanted = Group.params spec.group in
  {
    spec with
    grids = List.filter (fun g -> List.mem g.gname wanted) spec.grids;
    params = List.filter (fun (p, _) -> List.mem p params_wanted) spec.params;
  }

let describe spec =
  let b = Buffer.create 256 in
  Printf.bprintf b "seed %d, shape %s\n" spec.seed (Ivec.to_string spec.shape);
  List.iter
    (fun g ->
      Printf.bprintf b "grid %-8s %s %s\n" g.gname (Ivec.to_string g.gshape)
        (if g.gseed >= 0 then Printf.sprintf "random(seed=%d)" g.gseed
         else "zero"))
    spec.grids;
  List.iter (fun (p, v) -> Printf.bprintf b "param %s = %.17g\n" p v) spec.params;
  Buffer.add_string b (Program_io.group_to_string spec.group);
  Buffer.contents b
