type read = { slot : int; ctr : int; delta : int }

type expr =
  | K of int
  | Load of read
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type t = { rank : int; nslots : int; nctrs : int; body : expr }

(* The tree's coefficient count and its distinct loads, in first-occurrence
   order. *)
let leaves e =
  let nk = ref 0 and loads = ref [] in
  let rec go = function
    | K _ -> incr nk
    | Load r -> if not (List.mem r !loads) then loads := r :: !loads
    | Neg a -> go a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
        go a;
        go b
  in
  go e;
  (!nk, List.rev !loads)

(* Layout of the geometry argument: the tile's counts, each counter's base
   and per-axis increments, the output's base and increments. *)
let ctr_off t c = t.rank + (c * (t.rank + 1))
let out_off t = ctr_off t t.nctrs

(* The body of one form's function; its reads' deltas are literals. *)
let body t =
  let b = Buffer.create 2048 in
  let line indent fmt =
    Buffer.add_string b (String.make (2 * indent) ' ');
    Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt
  in
  let n = t.rank in
  for s = 0 to t.nslots - 1 do
    line 1 "let s%d = sget d %d in" s s
  done;
  line 1 "let out = sget d %d in" t.nslots;
  for i = 0 to n - 1 do
    line 1 "let n%d = iget g %d in" i i
  done;
  for c = 0 to t.nctrs - 1 do
    line 1 "let b%d = iget g %d in" c (ctr_off t c);
    for i = 0 to n - 1 do
      line 1 "let c%d_%d = iget g %d in" c i (ctr_off t c + 1 + i)
    done
  done;
  line 1 "let ob = iget g %d in" (out_off t);
  for i = 0 to n - 1 do
    line 1 "let oi%d = iget g %d in" i (out_off t + 1 + i)
  done;
  let nk, loads = leaves t.body in
  for j = 0 to nk - 1 do
    line 1 "let k%d = fget k %d in" j j
  done;
  (* loop nest: positions at depth i are p<c>_<i>; the innermost level
     binds the plain p<c> and o the body reads *)
  for i = 0 to n - 1 do
    let ind = i + 1 in
    line ind "for x%d = 0 to n%d - 1 do" i i;
    let name v = if i = n - 1 then v else Printf.sprintf "%s_%d" v i in
    let prev v b0 = if i = 0 then b0 else Printf.sprintf "%s_%d" v (i - 1) in
    for c = 0 to t.nctrs - 1 do
      let p = Printf.sprintf "p%d" c in
      line (ind + 1) "let %s = %s + (x%d * c%d_%d) in" (name p)
        (prev p (Printf.sprintf "b%d" c))
        i c i
    done;
    line (ind + 1) "let %s = %s + (x%d * oi%d) in" (name "o") (prev "o" "ob") i i
  done;
  let ind = n + 1 in
  (* each distinct read loaded once, before the store *)
  List.iteri
    (fun i r ->
      if r.delta = 0 then line ind "let l%d = fget s%d p%d in" i r.slot r.ctr
      else
        line ind "let l%d = fget s%d (p%d %c %d) in" i r.slot r.ctr
          (if r.delta < 0 then '-' else '+')
          (abs r.delta))
    loads;
  let rec expr = function
    | K i -> Printf.sprintf "k%d" i
    | Load r -> Printf.sprintf "l%d" (Option.get (List.find_index (( = ) r) loads))
    | Neg a -> Printf.sprintf "(~-. %s)" (expr a)
    | Add (a, b) -> binop "+." a b
    | Sub (a, b) -> binop "-." a b
    | Mul (a, b) -> binop "*." a b
    | Div (a, b) -> binop "/." a b
  and binop op a b = Printf.sprintf "(%s %s %s)" (expr a) op (expr b)
  in
  line ind "fset out o %s" (expr t.body);
  for i = n - 1 downto 0 do
    line (i + 1) "done"
  done;
  Buffer.contents b

let prelude =
  {|external fget : floatarray -> int -> float = "%floatarray_unsafe_get"
external fset : floatarray -> int -> float -> unit = "%floatarray_unsafe_set"
external iget : int array -> int -> int = "%array_unsafe_get"
external sget : floatarray array -> int -> floatarray = "%array_unsafe_get"
external register : string -> 'a -> unit = "caml_register_named_value"
|}

let program forms =
  let b = Buffer.create 4096 in
  Buffer.add_string b prelude;
  (* forms that print the same function share it *)
  let seen = Hashtbl.create 8 in
  let names =
    Array.map
      (fun t ->
        let text = body t in
        match Hashtbl.find_opt seen text with
        | Some name -> name
        | None ->
            let name = Printf.sprintf "run%d" (Hashtbl.length seen) in
            Hashtbl.add seen text name;
            Printf.bprintf b
              "\nlet %s (d : floatarray array) (k : floatarray) (g : int array) =\n%s"
              name text;
            name)
      forms
  in
  Printf.bprintf b "\nlet runs = [| %s |]\n" (String.concat "; " (Array.to_list names));
  Buffer.contents b

let registration name = Printf.sprintf "\nlet () = register %S runs\n" name
