open Snowflake

type read = string * Affine.t
type mono = { coeff : float; reads : read list }
type t = { const : float; monos : mono list }

let max_degree = 4
let max_monos = 128

let compare_read (g1, m1) (g2, m2) =
  let c = String.compare g1 g2 in
  if c <> 0 then c
  else
    let c = Sf_util.Ivec.compare m1.Affine.scale m2.Affine.scale in
    if c <> 0 then c
    else Sf_util.Ivec.compare m1.Affine.offset m2.Affine.offset

module Key = Map.Make (struct
  type t = read list

  let compare a b = List.compare compare_read a b
end)

(* A polynomial under construction: monomial key (sorted read list) ->
   coefficient.  The empty key is the constant term. *)
type acc = float Key.t

let const_poly c : acc = if c = 0. then Key.empty else Key.singleton [] c

let add_poly (a : acc) (b : acc) : acc =
  Key.union (fun _ x y -> Some (x +. y)) a b

let scale_poly k (a : acc) : acc =
  if k = 0. then Key.empty else Key.map (fun c -> k *. c) a

exception Too_big

let mul_poly (a : acc) (b : acc) : acc =
  let result = ref Key.empty in
  Key.iter
    (fun ra ca ->
      Key.iter
        (fun rb cb ->
          let reads = List.sort compare_read (ra @ rb) in
          if List.length reads > max_degree then raise Too_big;
          result :=
            Key.update reads
              (function None -> Some (ca *. cb) | Some c -> Some (c +. (ca *. cb)))
              !result;
          if Key.cardinal !result > max_monos then raise Too_big)
        b)
    a;
  !result

let of_expr ~params expr =
  let rec go = function
    | Expr.Const c -> const_poly c
    | Expr.Param p -> const_poly (params p)
    | Expr.Read (g, m) -> Key.singleton [ (g, m) ] 1.
    | Expr.Neg a -> scale_poly (-1.) (go a)
    | Expr.Add (a, b) -> add_poly (go a) (go b)
    | Expr.Sub (a, b) -> add_poly (go a) (scale_poly (-1.) (go b))
    | Expr.Mul (a, b) -> mul_poly (go a) (go b)
    | Expr.Div (a, b) -> (
        let pb = go b in
        match Key.bindings pb with
        | [] -> raise Too_big (* division by the zero polynomial *)
        | [ ([], c) ] when c <> 0. -> scale_poly (1. /. c) (go a)
        | _ -> raise Too_big (* reads in a denominator: not polynomial *))
  in
  match go expr with
  | poly ->
      let const = match Key.find_opt [] poly with Some c -> c | None -> 0. in
      let monos =
        Key.fold
          (fun reads coeff acc ->
            if reads = [] || coeff = 0. then acc
            else { coeff; reads } :: acc)
          poly []
        |> List.rev
      in
      Some { const; monos }
  | exception Too_big -> None

let eval t ~read_value =
  List.fold_left
    (fun acc m ->
      acc
      +. List.fold_left (fun p r -> p *. read_value r) m.coeff m.reads)
    t.const t.monos
