open Sf_util
open Sf_mesh

type t = { n : int; dims : int; shape : Ivec.t; h : float; grids : Grids.t }

let create_nd ~dims ~n =
  if dims < 1 then invalid_arg "Level: dims must be positive";
  if n < 2 || n mod 2 <> 0 then
    invalid_arg "Level: n must be even and >= 2";
  let shape = Ivec.make dims (n + 2) in
  let grids = Grids.create () in
  List.iter
    (fun name -> Grids.add grids name (Mesh.create shape))
    [ "u"; "f"; "res"; "tmp"; "dinv" ];
  for a = 0 to dims - 1 do
    let m = Mesh.create shape in
    Mesh.fill m 1.;
    Grids.add grids (Nd.beta_name a) m
  done;
  { n; dims; shape; h = 1. /. float_of_int n; grids }

let create ~n = create_nd ~dims:3 ~n
let params t = [ ("inv_h2", 1. /. (t.h *. t.h)) ]
let u t = Grids.find t.grids "u"
let f t = Grids.find t.grids "f"
let res t = Grids.find t.grids "res"
let dinv t = Grids.find t.grids "dinv"

let dof t =
  let rec pow acc k = if k = 0 then acc else pow (acc * t.n) (k - 1) in
  pow 1 t.dims

(* Interior cells in row-major order, axis 0 outermost, each as its flat
   index (the same in every mesh of the level) and its centre.  The
   centre array is reused from one cell to the next: callbacks must not
   keep it. *)
let iter_interior t fn =
  let strides = Ivec.strides t.shape and c = Array.make t.dims 0. in
  let last = t.dims - 1 in
  let rec go a base =
    for i = 1 to t.n do
      c.(a) <- (float_of_int i -. 0.5) *. t.h;
      let k = base + (i * strides.(a)) in
      if a = last then fn k c else go (a + 1) k
    done
  in
  go 0 0

let check t mesh fn =
  if not (Ivec.equal (Mesh.shape mesh) t.shape) then
    invalid_arg (Printf.sprintf "Level.%s: mesh shape is not the level's" fn)

let cell_center_nd t p = Array.map (fun i -> (float_of_int i -. 0.5) *. t.h) p

let cell_center t p =
  let c = cell_center_nd t p in
  (c.(0), c.(1), c.(2))

let fill_interior_nd mesh t fn =
  check t mesh "fill_interior";
  iter_interior t (fun k c -> Mesh.unsafe_set_flat mesh k (fn c))

let fill_interior mesh t fn =
  fill_interior_nd mesh t (fun c -> fn c.(0) c.(1) c.(2))

let set_beta_nd t beta =
  (* beta_a at cell p sits on the low face of the cell along axis a: that
     face's centre has coordinate (p_a - 1)h along a and cell-centre
     coordinates along the other axes. *)
  let c = Array.make t.dims 0. in
  for axis = 0 to t.dims - 1 do
    Mesh.fill_with
      (Grids.find t.grids (Nd.beta_name axis))
      (fun p ->
        for a = 0 to t.dims - 1 do
          c.(a) <- (float_of_int p.(a) -. 0.5) *. t.h
        done;
        c.(axis) <- float_of_int (p.(axis) - 1) *. t.h;
        beta c)
  done

let set_beta t beta = set_beta_nd t (fun c -> beta c.(0) c.(1) c.(2))

let interior_norm_l2 t mesh =
  check t mesh "interior_norm_l2";
  let acc = ref 0. in
  iter_interior t (fun k _ ->
      let v = Mesh.unsafe_get_flat mesh k in
      acc := !acc +. (v *. v));
  sqrt !acc

let interior_norm_linf t mesh =
  check t mesh "interior_norm_linf";
  let acc = ref 0. in
  iter_interior t (fun k _ ->
      acc := Float.max !acc (Float.abs (Mesh.unsafe_get_flat mesh k)));
  !acc

let error_vs_nd t mesh exact =
  check t mesh "error_vs";
  let acc = ref 0. in
  iter_interior t (fun k c ->
      let e = Mesh.unsafe_get_flat mesh k -. exact c in
      acc := Float.max !acc (Float.abs e));
  !acc

let error_vs t mesh exact =
  error_vs_nd t mesh (fun c -> exact c.(0) c.(1) c.(2))
