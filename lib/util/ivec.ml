type t = int array

let dims v = Array.length v
let zero n = Array.make n 0
let make n v = Array.make n v
let of_list = Array.of_list
let to_list = Array.to_list

let check_rank a b =
  if Array.length a <> Array.length b then
    invalid_arg "Ivec: rank mismatch"

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

let compare (a : t) (b : t) =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length a then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let map2 f a b =
  check_rank a b;
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let add a b = map2 ( + ) a b
let sub a b = map2 ( - ) a b
let neg a = Array.map (fun x -> -x) a
let scale k a = Array.map (fun x -> k * x) a
let mul a b = map2 ( * ) a b

let dot a b =
  check_rank a b;
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    s := !s + (a.(i) * b.(i))
  done;
  !s

let max2 a b = map2 max a b
let min2 a b = map2 min a b
let l1_norm a = Array.fold_left (fun acc x -> acc + abs x) 0 a
let linf_norm a = Array.fold_left (fun acc x -> max acc (abs x)) 0 a
let is_zero a = Array.for_all (fun x -> x = 0) a
let product a = Array.fold_left ( * ) 1 a

let strides shape =
  let n = Array.length shape in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * shape.(i + 1)
  done;
  s

let hash a =
  (* FNV-style fold; good enough for hashtable keys over small vectors. *)
  Array.fold_left (fun acc x -> (acc * 1000003) lxor (x + 0x9e37)) 17 a

let pp ppf v =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (to_list v)

let to_string v = Format.asprintf "%a" pp v
