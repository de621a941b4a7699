open Sf_util

type t = { shape : Ivec.t; strides : Ivec.t; data : floatarray }

let check_shape shape =
  if Array.length shape = 0 then Error "empty shape"
  else if Array.exists (fun e -> e <= 0) shape then Error "non-positive extent"
  else Ok ()

let create shape =
  (match check_shape shape with
  | Error m -> invalid_arg ("Mesh.create: " ^ m)
  | Ok () -> ());
  let size = Ivec.product shape in
  {
    shape = Array.copy shape;
    strides = Ivec.strides shape;
    data = Float.Array.make size 0.;
  }

let shape m = Array.copy m.shape
let dims m = Array.length m.shape
let size m = Float.Array.length m.data
let strides m = Array.copy m.strides

let flat_index m p = Ivec.dot m.strides p

let in_bounds m p =
  Array.length p = Array.length m.shape
  && Array.for_all2 (fun x e -> x >= 0 && x < e) p m.shape

let get m p =
  if not (in_bounds m p) then
    invalid_arg
      (Printf.sprintf "Mesh.get: %s out of bounds %s" (Ivec.to_string p)
         (Ivec.to_string m.shape));
  Float.Array.get m.data (flat_index m p)

let set m p v =
  if not (in_bounds m p) then
    invalid_arg
      (Printf.sprintf "Mesh.set: %s out of bounds %s" (Ivec.to_string p)
         (Ivec.to_string m.shape));
  Float.Array.set m.data (flat_index m p) v

let get_flat m i = Float.Array.get m.data i
let set_flat m i v = Float.Array.set m.data i v
let unsafe_get_flat m i = Float.Array.unsafe_get m.data i
let unsafe_set_flat m i v = Float.Array.unsafe_set m.data i v
let data m = m.data

(* Row-major point iteration: advance a mutable multi-index like an odometer. *)
let iteri m f =
  let n = dims m in
  let p = Array.make n 0 in
  let total = size m in
  for flat = 0 to total - 1 do
    f p (Float.Array.unsafe_get m.data flat);
    let rec bump i =
      if i >= 0 then begin
        p.(i) <- p.(i) + 1;
        if p.(i) >= m.shape.(i) then begin
          p.(i) <- 0;
          bump (i - 1)
        end
      end
    in
    bump (n - 1)
  done

let fill_with m f =
  let n = dims m in
  let p = Array.make n 0 in
  let total = size m in
  for flat = 0 to total - 1 do
    Float.Array.unsafe_set m.data flat (f p);
    let rec bump i =
      if i >= 0 then begin
        p.(i) <- p.(i) + 1;
        if p.(i) >= m.shape.(i) then begin
          p.(i) <- 0;
          bump (i - 1)
        end
      end
    in
    bump (n - 1)
  done

let create_init shape f =
  let m = create shape in
  fill_with m f;
  m

let fill m v = Float.Array.fill m.data 0 (size m) v

let random ?(seed = 42) ?(lo = -1.) ?(hi = 1.) shape =
  let st = Random.State.make [| seed |] in
  let m = create shape in
  for i = 0 to size m - 1 do
    Float.Array.unsafe_set m.data i (lo +. Random.State.float st (hi -. lo))
  done;
  m

let copy m =
  {
    shape = Array.copy m.shape;
    strides = Array.copy m.strides;
    data = Float.Array.copy m.data;
  }

let blit ~src ~dst =
  if not (Ivec.equal src.shape dst.shape) then
    invalid_arg "Mesh.blit: shape mismatch";
  Float.Array.blit src.data 0 dst.data 0 (size src)

let map_inplace m f =
  for i = 0 to size m - 1 do
    Float.Array.unsafe_set m.data i (f (Float.Array.unsafe_get m.data i))
  done

let dot a b =
  if not (Ivec.equal a.shape b.shape) then invalid_arg "Mesh.dot: shape mismatch";
  let s = ref 0. in
  for i = 0 to size a - 1 do
    s :=
      !s
      +. (Float.Array.unsafe_get a.data i *. Float.Array.unsafe_get b.data i)
  done;
  !s

let norm_l2 a = sqrt (dot a a)

let norm_linf a =
  let s = ref 0. in
  for i = 0 to size a - 1 do
    s := Float.max !s (Float.abs (Float.Array.unsafe_get a.data i))
  done;
  !s

let sum a =
  let s = ref 0. in
  for i = 0 to size a - 1 do
    s := !s +. Float.Array.unsafe_get a.data i
  done;
  !s

let mean a = sum a /. float_of_int (size a)

let max_abs_diff a b =
  if not (Ivec.equal a.shape b.shape) then
    invalid_arg "Mesh.max_abs_diff: shape mismatch";
  let s = ref 0. in
  for i = 0 to size a - 1 do
    s :=
      Float.max !s
        (Float.abs
           (Float.Array.unsafe_get a.data i -. Float.Array.unsafe_get b.data i))
  done;
  !s

let equal_approx ?(tol = 1e-12) a b =
  Ivec.equal a.shape b.shape && max_abs_diff a b <= tol

let close ?ulps ?atol a b =
  Ivec.equal a.shape b.shape && Fcmp.array_close ?ulps ?atol a.data b.data

let first_mismatch ?ulps ?atol a b =
  if not (Ivec.equal a.shape b.shape) then
    invalid_arg "Mesh.first_mismatch: shape mismatch";
  match Fcmp.first_mismatch ?ulps ?atol a.data b.data with
  | None -> None
  | Some (flat, x, y) ->
      let point = Array.make (dims a) 0 in
      let rem = ref flat in
      let str = strides a in
      for ax = 0 to dims a - 1 do
        point.(ax) <- !rem / str.(ax);
        rem := !rem mod str.(ax)
      done;
      Some (point, x, y)

let axpy ~alpha ~x ~y =
  if not (Ivec.equal x.shape y.shape) then invalid_arg "Mesh.axpy: shape mismatch";
  for i = 0 to size x - 1 do
    Float.Array.unsafe_set y.data i
      ((alpha *. Float.Array.unsafe_get x.data i)
      +. Float.Array.unsafe_get y.data i)
  done

let scale_inplace m alpha =
  for i = 0 to size m - 1 do
    Float.Array.unsafe_set m.data i (alpha *. Float.Array.unsafe_get m.data i)
  done

let pp ppf m =
  let n = min 8 (size m) in
  Format.fprintf ppf "mesh%a[" Ivec.pp m.shape;
  for i = 0 to n - 1 do
    if i > 0 then Format.fprintf ppf "; ";
    Format.fprintf ppf "%g" (get_flat m i)
  done;
  if size m > n then Format.fprintf ppf "; ...";
  Format.fprintf ppf "]"
