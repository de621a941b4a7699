open Sf_util
open Snowflake

(* The 3-D instantiation of {!Nd} that the benchmarks and CLIs read,
   plus two higher-order constant-coefficient operators. *)

let boundaries ~grid = Nd.boundaries ~dims:3 ~grid

let laplacian_7pt ~out ~input =
  Stencil.make ~label:"cc_laplacian_7pt" ~output:out
    ~expr:((Nd.cc ~dims:3).apply input)
    ~domain:(Nd.interior ~dims:3) ()

let residual_vc = Nd.residual (Nd.vc ~dims:3)
let dinv_setup = Nd.dinv (Nd.vc ~dims:3)
let gsrb_smooth = Nd.gsrb (Nd.vc ~dims:3) ~ncolors:2
let jacobi_smooth = Nd.jacobi (Nd.cc ~dims:3)
let restriction = Nd.restriction ~dims:3
let interpolation = Nd.interpolation ~dims:3

(* ------------------------------------------------ higher-order operators *)

let laplacian_27pt ~out ~input =
  let u o = Expr.read input o in
  let r = [ -1; 0; 1 ] in
  let cube =
    List.concat_map
      (fun dx ->
        List.concat_map
          (fun dy -> List.map (fun dz -> Ivec.of_list [ dx; dy; dz ]) r)
          r)
      r
  in
  (* every tap at L1 distance [l1] from the centre, weighted [w] *)
  let taps w l1 =
    List.filter_map
      (fun o ->
        if Ivec.l1_norm o = l1 then Some Expr.(const w *: u o) else None)
      cube
  in
  let expr =
    Expr.(
      param "inv_h2"
      *: (const (1. /. 30.)
         *: ((const 128. *: u (Ivec.zero 3))
            -: sum (taps 14. 1 @ taps 3. 2 @ taps 1. 3))))
  in
  Stencil.make ~label:"cc_laplacian_27pt" ~output:out ~expr
    ~domain:(Nd.interior ~dims:3) ()

let laplacian_4th ~out ~input =
  (* input at [v] cells along axis [a] *)
  let u a v =
    Expr.read input (Array.init 3 (fun b -> if b = a then v else 0))
  in
  let axis_terms a =
    Expr.
      [
        const (-1.) *: u a (-2);
        const 16. *: u a (-1);
        const 16. *: u a 1;
        const (-1.) *: u a 2;
      ]
  in
  let expr =
    Expr.(
      param "inv_h2"
      *: (const (1. /. 12.)
         *: ((const 90. *: u 0 0)
            -: sum (List.concat_map axis_terms [ 0; 1; 2 ]))))
  in
  Stencil.make ~label:"cc_laplacian_4th" ~output:out ~expr
    ~domain:(Domain.interior 3 ~ghost:2)
    ()
