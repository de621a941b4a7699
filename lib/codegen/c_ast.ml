(* A miniature C abstract syntax, sufficient for stencil loop nests.

   The micro-compilers build this AST and C_pp renders it; keeping a real
   AST (rather than string pasting) is what lets tests assert on structure
   — loop bounds, pragma placement, index arithmetic. *)

type expr =
  | Int of int
  | Float of float
  | Var of string
  | Index of string * expr  (** [arr[e]] *)
  | Bin of string * expr * expr  (** infix operator by symbol *)
  | Un of string * expr
  | Call of string * expr list

type stmt =
  | Decl of string * string * expr  (** ctype, name, initialiser *)
  | Assign of expr * expr
  | For of {
      var : string;
      from_ : expr;
      below : expr;
      step : expr;
      body : stmt list;
    }  (** [for (long var = from_; var < below; var += step)] *)
  | If of expr * stmt list
  | Pragma of string
  | Comment of string
  | Block of stmt list

type param = { ctype : string; name : string }

type func = {
  qualifier : string;  (** e.g. "" or "__kernel" *)
  ret : string;
  fname : string;
  params : param list;
  body : stmt list;
}

(* Constant-folding sum: drops zero terms, folds [Int]s. *)
let add a b =
  match (a, b) with
  | Int 0, e | e, Int 0 -> e
  | Int x, Int y -> Int (x + y)
  | _ -> Bin ("+", a, b)

(* Constant-folding product: collapses with 0 and 1. *)
let mul a b =
  match (a, b) with
  | Int 0, _ | _, Int 0 -> Int 0
  | Int 1, e | e, Int 1 -> e
  | Int x, Int y -> Int (x * y)
  | _ -> Bin ("*", a, b)

let sum = function [] -> Int 0 | e :: es -> List.fold_left add e es
