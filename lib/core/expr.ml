open Sf_util

type t =
  | Const of float
  | Param of string
  | Read of string * Affine.t
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t

let const c = Const c
let param name = Param name
let read grid offset = Read (grid, Affine.of_offset offset)
let read_affine grid map = Read (grid, map)
let ( +: ) a b = Add (a, b)
let ( -: ) a b = Sub (a, b)
let ( *: ) a b = Mul (a, b)
let ( /: ) a b = Div (a, b)
let neg a = Neg a

let sum = function
  | [] -> Const 0.
  | e :: es -> List.fold_left ( +: ) e es

let rec rename_grids f = function
  | Const _ as e -> e
  | Param _ as e -> e
  | Read (g, m) -> Read (f g, m)
  | Neg e -> Neg (rename_grids f e)
  | Add (a, b) -> Add (rename_grids f a, rename_grids f b)
  | Sub (a, b) -> Sub (rename_grids f a, rename_grids f b)
  | Mul (a, b) -> Mul (rename_grids f a, rename_grids f b)
  | Div (a, b) -> Div (rename_grids f a, rename_grids f b)

let rec shift o = function
  | Const _ as e -> e
  | Param _ as e -> e
  | Read (g, m) -> Read (g, Affine.shift m o)
  | Neg e -> Neg (shift o e)
  | Add (a, b) -> Add (shift o a, shift o b)
  | Sub (a, b) -> Sub (shift o a, shift o b)
  | Mul (a, b) -> Mul (shift o a, shift o b)
  | Div (a, b) -> Div (shift o a, shift o b)

module ReadSet = Set.Make (struct
  type nonrec t = string * Affine.t

  let compare (g1, m1) (g2, m2) =
    let c = String.compare g1 g2 in
    if c <> 0 then c
    else
      let c = Ivec.compare m1.Affine.scale m2.Affine.scale in
      if c <> 0 then c else Ivec.compare m1.Affine.offset m2.Affine.offset
end)

let reads e =
  let rec go acc = function
    | Const _ | Param _ -> acc
    | Read (g, m) -> ReadSet.add (g, m) acc
    | Neg a -> go acc a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> go (go acc a) b
  in
  ReadSet.elements (go ReadSet.empty e)

let grids e = reads e |> List.map fst |> List.sort_uniq String.compare

let params e =
  let rec go acc = function
    | Const _ | Read _ -> acc
    | Param p -> p :: acc
    | Neg a -> go acc a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> go (go acc a) b
  in
  go [] e |> List.sort_uniq String.compare

let dims e =
  match reads e with
  | [] -> None
  | (_, m0) :: rest ->
      let n = Affine.dims m0 in
      List.iter
        (fun (_, m) ->
          if Affine.dims m <> n then
            invalid_arg "Expr.dims: reads of differing rank")
        rest;
      Some n

let rec simplify e =
  match e with
  | Const _ | Param _ | Read _ -> e
  | Neg a -> (
      match simplify a with
      | Const c -> Const (-.c)
      | Neg b -> b
      | a' -> Neg a')
  | Add (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (x +. y)
      | Const 0., b' -> b'
      | a', Const 0. -> a'
      | a', b' -> Add (a', b'))
  | Sub (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (x -. y)
      | a', Const 0. -> a'
      | Const 0., b' -> Neg b'
      | a', b' -> Sub (a', b'))
  | Mul (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (x *. y)
      | Const 0., _ | _, Const 0. -> Const 0.
      | Const 1., b' -> b'
      | a', Const 1. -> a'
      | Const (-1.), b' -> Neg b'
      | a', Const (-1.) -> Neg a'
      | a', b' -> Mul (a', b'))
  | Div (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y when y <> 0. -> Const (x /. y)
      | a', Const 1. -> a'
      | a', b' -> Div (a', b'))

let rec equal a b =
  match (a, b) with
  | Const x, Const y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Param p, Param q -> String.equal p q
  | Read (g1, m1), Read (g2, m2) -> String.equal g1 g2 && Affine.equal m1 m2
  | Neg x, Neg y -> equal x y
  | Add (x1, y1), Add (x2, y2)
  | Sub (x1, y1), Sub (x2, y2)
  | Mul (x1, y1), Mul (x2, y2)
  | Div (x1, y1), Div (x2, y2) ->
      equal x1 x2 && equal y1 y2
  | (Const _ | Param _ | Read _ | Neg _ | Add _ | Sub _ | Mul _ | Div _), _ ->
      false

let rec hash = function
  | Const c -> Hashc.combine 1 (Hashc.float c)
  | Param p -> Hashc.combine 2 (Hashc.string p)
  | Read (g, m) -> Hashc.combine3 3 (Hashc.string g) (Affine.hash m)
  | Neg a -> Hashc.combine 4 (hash a)
  | Add (a, b) -> Hashc.combine3 5 (hash a) (hash b)
  | Sub (a, b) -> Hashc.combine3 6 (hash a) (hash b)
  | Mul (a, b) -> Hashc.combine3 7 (hash a) (hash b)
  | Div (a, b) -> Hashc.combine3 8 (hash a) (hash b)

let rec pp ppf = function
  | Const c -> Format.fprintf ppf "%g" c
  | Param p -> Format.fprintf ppf "$%s" p
  | Read (g, m) -> Format.fprintf ppf "%s[%a]" g Affine.pp m
  | Neg a -> Format.fprintf ppf "(- %a)" pp a
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp a pp b

let to_string e = Format.asprintf "%a" pp e

let rec eval e ~read ~params =
  match e with
  | Const c -> c
  | Param p -> params p
  | Read (g, m) -> read g m
  | Neg a -> -.eval a ~read ~params
  | Add (a, b) -> eval a ~read ~params +. eval b ~read ~params
  | Sub (a, b) -> eval a ~read ~params -. eval b ~read ~params
  | Mul (a, b) -> eval a ~read ~params *. eval b ~read ~params
  | Div (a, b) -> eval a ~read ~params /. eval b ~read ~params
