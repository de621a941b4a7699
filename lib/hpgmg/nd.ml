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

let cc_apply_expr ~dims input =
  let u o = Expr.read input o in
  let neighbours =
    Expr.sum
      (List.concat_map
         (fun a -> [ u (off dims a (-1)); u (off dims a 1) ])
         (axes dims))
  in
  let center_coeff = float_of_int (2 * dims) in
  let center = u (zero dims) in
  eparam "inv_h2" *: ((const center_coeff *: center) -: neighbours)

let laplacian_cc ~dims ~out ~input =
  Stencil.make
    ~label:(Printf.sprintf "cc_laplacian_%dpt" ((2 * dims) + 1))
    ~output:out
    ~expr:(cc_apply_expr ~dims input)
    ~domain:(interior ~dims) ()

let residual_cc ~dims =
  Stencil.make ~label:"cc_residual" ~output:"res"
    ~expr:(Expr.read "f" (zero dims) -: cc_apply_expr ~dims "u")
    ~domain:(interior ~dims) ()

let jacobi_cc ~dims ~out ~input =
  let diag_coeff = float_of_int (2 * dims) in
  let dinv = const (2. /. 3.) /: (const diag_coeff *: eparam "inv_h2") in
  Stencil.make ~label:"cc_jacobi" ~output:out
    ~expr:
      (Expr.read input (zero dims)
      +: (dinv *: (Expr.read "f" (zero dims) -: cc_apply_expr ~dims input)))
    ~domain:(interior ~dims) ()

let copy_interior ~dims ~out ~input =
  Stencil.make
    ~label:(Printf.sprintf "copy_%s_to_%s" input out)
    ~output:out
    ~expr:(Expr.read input (zero dims))
    ~domain:(interior ~dims) ()

let jacobi_smooth ~dims =
  Group.make ~label:"jacobi_smooth"
    (boundaries ~dims ~grid:"u"
    @ [
        jacobi_cc ~dims ~out:"tmp" ~input:"u";
        copy_interior ~dims ~out:"u" ~input:"tmp";
      ])

let beta_lo dims a = Expr.read (beta_name a) (zero dims)
let beta_hi dims a = Expr.read (beta_name a) (off dims a 1)

let sum_betas dims =
  Expr.sum
    (List.concat_map (fun a -> [ beta_lo dims a; beta_hi dims a ]) (axes dims))

let vc_apply_expr ~dims input =
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

let residual_vc ~dims =
  Stencil.make ~label:"vc_residual" ~output:"res"
    ~expr:(Expr.read "f" (zero dims) -: vc_apply_expr ~dims "u")
    ~domain:(interior ~dims) ()

let dinv_setup ~dims =
  Stencil.make ~label:"dinv_setup" ~output:"dinv"
    ~expr:(const 1. /: (eparam "inv_h2" *: sum_betas dims))
    ~domain:(interior ~dims) ()

let gsrb_color ~dims ~color =
  Stencil.make
    ~label:(if color = 0 then "gsrb_red" else "gsrb_black")
    ~output:"u"
    ~expr:
      (Expr.read "u" (zero dims)
      +: (Expr.read "dinv" (zero dims)
         *: (Expr.read "f" (zero dims) -: vc_apply_expr ~dims "u")))
    ~domain:(Domain.colored dims ~ghost:1 ~color ~ncolors:2)
    ()

let gsrb_smooth ~dims =
  Group.make ~label:"gsrb_smooth"
    (boundaries ~dims ~grid:"u"
    @ [ gsrb_color ~dims ~color:0 ]
    @ boundaries ~dims ~grid:"u"
    @ [ gsrb_color ~dims ~color:1 ])

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

let interpolation ~dims =
  List.map
    (fun p ->
      let out_map =
        Affine.make ~scale:(Ivec.make dims 2)
          ~offset:(Array.map (fun v -> v - 1) p)
      in
      Stencil.make
        ~label:
          (Printf.sprintf "interp_pc_%s"
             (String.concat "" (List.map string_of_int (Ivec.to_list p))))
        ~output:"fine_u" ~out_map
        ~expr:
          (Expr.read_affine "fine_u" out_map
          +: Expr.read "coarse_u" (zero dims))
        ~domain:(interior ~dims) ())
    (parities dims)

let pi = 4. *. atan 1.

let exact_sine coords =
  Array.fold_left (fun acc x -> acc *. sin (pi *. x)) 1. coords

let rhs_sine ~dims coords =
  float_of_int dims *. pi *. pi *. exact_sine coords
