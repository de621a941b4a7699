open Sf_util
open Snowflake

let axis_name = function
  | 0 -> "x"
  | 1 -> "y"
  | 2 -> "z"
  | 3 -> "w"
  | i -> Printf.sprintf "a%d" i

let beta_name a = "beta_" ^ axis_name a

let zero dims = Ivec.zero dims

let off dims a v =
  let o = Ivec.zero dims in
  o.(a) <- v;
  o

let axes dims = List.init dims Fun.id

(* Local operator aliases instead of [Expr.( ... )] opens: the local open
   would shadow this module's ubiquitous [dims] parameter with
   [Expr.dims]. *)
let ( +: ) = Expr.( +: )
let ( -: ) = Expr.( -: )
let ( *: ) = Expr.( *: )
let ( /: ) = Expr.( /: )
let const = Expr.const
let eparam = Expr.param
let interior ~dims = Domain.interior dims ~ghost:1

let boundaries ~dims ~grid = Dsl.dirichlet_faces ~dims ~grid

(* ------------------------------------------------------------ operators *)

type operator = {
  dims : int;
  name : string;
  apply : string -> Expr.t;
  diag : Expr.t;
}

let cc ~dims =
  let center_coeff = const (float_of_int (2 * dims)) in
  let apply input =
    let u o = Expr.read input o in
    let neighbours =
      Expr.sum
        (List.concat_map
           (fun a -> [ u (off dims a (-1)); u (off dims a 1) ])
           (axes dims))
    in
    eparam "inv_h2" *: ((center_coeff *: u (zero dims)) -: neighbours)
  in
  { dims; name = "cc"; apply; diag = center_coeff *: eparam "inv_h2" }

let beta_lo dims a = Expr.read (beta_name a) (zero dims)
let beta_hi dims a = Expr.read (beta_name a) (off dims a 1)

let sum_betas dims =
  Expr.sum
    (List.concat_map (fun a -> [ beta_lo dims a; beta_hi dims a ]) (axes dims))

let vc ~dims =
  let apply input =
    let u o = Expr.read input o in
    let flux =
      Expr.sum
        (List.concat_map
           (fun a ->
             [
               beta_lo dims a *: u (off dims a (-1));
               beta_hi dims a *: u (off dims a 1);
             ])
           (axes dims))
    in
    eparam "inv_h2" *: ((sum_betas dims *: u (zero dims)) -: flux)
  in
  { dims; name = "vc"; apply; diag = eparam "inv_h2" *: sum_betas dims }

let helmholtz ~dims =
  let vc = vc ~dims in
  let shift = eparam "a_coef" *: Expr.read "alpha" (zero dims) in
  {
    dims;
    name = "helmholtz";
    apply =
      (fun input ->
        (shift *: Expr.read input (zero dims))
        +: (eparam "b_coef" *: vc.apply input));
    diag = shift +: (eparam "b_coef" *: vc.diag);
  }

(* ---------------------------------------------------------- derivations *)

let residual op =
  Stencil.make ~label:(op.name ^ "_residual") ~output:"res"
    ~expr:(Expr.read "f" (zero op.dims) -: op.apply "u")
    ~domain:(interior ~dims:op.dims) ()

let dinv op =
  Stencil.make ~label:"dinv_setup" ~output:"dinv"
    ~expr:(const 1. /: op.diag)
    ~domain:(interior ~dims:op.dims) ()

(* The step every relaxation shares: output = src + scale·(f − A src). *)
let relax op ~label ~output ~src ~scale ~domain =
  let here g = Expr.read g (zero op.dims) in
  Stencil.make ~label ~output
    ~expr:(here src +: (scale *: (here "f" -: op.apply src)))
    ~domain ()

let copy_interior ~dims ~out ~input =
  Stencil.make
    ~label:(Printf.sprintf "copy_%s_to_%s" input out)
    ~output:out
    ~expr:(Expr.read input (zero dims))
    ~domain:(interior ~dims) ()

let jacobi op =
  let dims = op.dims in
  Group.make ~label:"jacobi_smooth"
    (boundaries ~dims ~grid:"u"
    @ [
        relax op ~label:(op.name ^ "_jacobi") ~output:"tmp" ~src:"u"
          ~scale:(const (2. /. 3.) /: op.diag)
          ~domain:(interior ~dims);
        copy_interior ~dims ~out:"u" ~input:"tmp";
      ])

let gsrb_sweep op ~ncolors ~color =
  relax op
    ~label:
      (match (ncolors, color) with
      | 2, 0 -> "gsrb_red"
      | 2, _ -> "gsrb_black"
      | _ -> Printf.sprintf "gsrb%d_c%d" ncolors color)
    ~output:"u" ~src:"u"
    ~scale:(Expr.read "dinv" (zero op.dims))
    ~domain:(Domain.colored op.dims ~ghost:1 ~color ~ncolors)

let gsrb op ~ncolors =
  Group.make
    ~label:
      (if ncolors = 2 then "gsrb_smooth"
       else Printf.sprintf "gsrb%d_smooth" ncolors)
    (List.concat_map
       (fun color ->
         boundaries ~dims:op.dims ~grid:"u" @ [ gsrb_sweep op ~ncolors ~color ])
       (List.init ncolors Fun.id))

let chebyshev op ~degree =
  if degree < 1 then invalid_arg "Nd.chebyshev: degree >= 1";
  let dims = op.dims in
  (* steps ping-pong u -> tmp -> u ... *)
  let step k =
    let src, dst = if k mod 2 = 0 then ("u", "tmp") else ("tmp", "u") in
    boundaries ~dims ~grid:src
    @ [
        relax op
          ~label:(Printf.sprintf "cheb_step_%d" k)
          ~output:dst ~src
          ~scale:(eparam (Printf.sprintf "cheb_a%d" k))
          ~domain:(interior ~dims);
      ]
  in
  (* after an odd number of steps the current iterate lives in tmp *)
  let tail =
    if degree mod 2 = 1 then [ copy_interior ~dims ~out:"u" ~input:"tmp" ]
    else []
  in
  Group.make
    ~label:(Printf.sprintf "chebyshev_%d" degree)
    (List.concat (List.init degree step) @ tail)

let pi = 4. *. atan 1.

let chebyshev_params ~dims ~level_h ~lambda_lo_frac ~degree =
  let lambda_max = float_of_int (4 * dims) /. (level_h *. level_h) in
  let lambda_min = lambda_lo_frac *. lambda_max in
  let theta = 0.5 *. (lambda_max +. lambda_min) in
  let rho = 0.5 *. (lambda_max -. lambda_min) in
  ("inv_h2", 1. /. (level_h *. level_h))
  :: List.init degree (fun k ->
         let angle =
           pi *. ((2. *. float_of_int k) +. 1.) /. (2. *. float_of_int degree)
         in
         (Printf.sprintf "cheb_a%d" k, 1. /. (theta +. (rho *. cos angle))))

(* ------------------------------------------------------------ transfers *)

(* all corners of the unit hypercube, i.e. {0,1}^dims *)
let parities dims =
  let rec go = function
    | 0 -> [ [] ]
    | d -> List.concat_map (fun p -> [ 0 :: p; 1 :: p ]) (go (d - 1))
  in
  List.map Array.of_list (go dims)

let restriction ~dims =
  let scale = Ivec.make dims 2 in
  let taps =
    List.map
      (fun p ->
        Expr.read_affine "fine_res"
          (Affine.make ~scale ~offset:(Array.map (fun v -> v - 1) p)))
      (parities dims)
  in
  let w = 1. /. float_of_int (1 lsl dims) in
  Stencil.make ~label:"restrict_pc" ~output:"coarse_f"
    ~expr:(Expr.sum taps *: const w)
    ~domain:(interior ~dims) ()

(* Interpolation-and-correct: one stencil per fine-cell parity [p], each
   iterating the coarse interior and adding [correction p] to the fine
   cell through a scale-2 output map. *)
let prolong ~dims ~kind parities correction =
  List.map
    (fun p ->
      let out_map =
        Affine.make ~scale:(Ivec.make dims 2)
          ~offset:(Array.map (fun v -> v - 1) p)
      in
      Stencil.make
        ~label:
          (Printf.sprintf "interp_%s_%s" kind
             (String.concat "" (List.map string_of_int (Ivec.to_list p))))
        ~output:"fine_u" ~out_map
        ~expr:(Expr.read_affine "fine_u" out_map +: correction p)
        ~domain:(interior ~dims) ())
    parities

let interpolation ~dims =
  prolong ~dims ~kind:"pc" (parities dims) (fun _ ->
      Expr.read "coarse_u" (zero dims))

(* Multilinear: per axis 3/4 from the containing coarse cell and 1/4 from
   the coarse neighbour on the side the fine cell leans toward.
   Parities and taps run last axis fastest. *)
let interpolation_linear ~dims =
  let corners =
    List.map
      (fun p -> Array.of_list (List.rev (Array.to_list p)))
      (parities dims)
  in
  let tap p d =
    let weight =
      Array.fold_left (fun w da -> w *. if da = 0 then 0.75 else 0.25) 1. d
    in
    let lean a da = if da = 0 then 0 else if p.(a) = 0 then -1 else 1 in
    const weight *: Expr.read "coarse_u" (Array.mapi lean d)
  in
  prolong ~dims ~kind:"tl" corners (fun p ->
      Expr.sum (List.map (tap p) corners))

let exact_sine coords =
  Array.fold_left (fun acc x -> acc *. sin (pi *. x)) 1. coords

let rhs_sine ~dims coords =
  float_of_int dims *. pi *. pi *. exact_sine coords
