type read = { slot : int; ctr : int; delta : int }

type node = {
  const : float;
  linear : (read * float) list;
  factors : (read * node) list;
  residual : (float * read list) list;
}

type t = { rank : int; nslots : int; nctrs : int; body : node }

(* The one traversal order every consumer follows: a node's constant, its
   linear taps, its factors (read, then the sub-node), then — when there
   is a residual — a zero seed and each residual monomial's coefficient
   and reads.  Coefficients go to [k], deltas to [z]. *)
let rec visit ~k ~z nd =
  k nd.const;
  List.iter
    (fun (r, w) ->
      k w;
      z r.delta)
    nd.linear;
  List.iter
    (fun (r, sub) ->
      z r.delta;
      visit ~k ~z sub)
    nd.factors;
  if nd.residual <> [] then begin
    k 0.;
    List.iter
      (fun (c, rs) ->
        k c;
        List.iter (fun r -> z r.delta) rs)
      nd.residual
  end

let coeffs nd =
  let acc = ref [] in
  visit ~k:(fun c -> acc := c :: !acc) ~z:ignore nd;
  Float.Array.of_list (List.rev !acc)

let deltas nd =
  let acc = ref [] in
  visit ~k:ignore ~z:(fun d -> acc := d :: !acc) nd;
  Array.of_list (List.rev !acc)

(* Everything except coefficients and deltas, as a compact string. *)
let key t =
  let b = Buffer.create 64 in
  let int tag i =
    Buffer.add_char b tag;
    Buffer.add_string b (string_of_int i)
  in
  int 'r' t.rank;
  int 's' t.nslots;
  int 'c' t.nctrs;
  let rd r =
    int ' ' r.slot;
    int '.' r.ctr
  in
  let rec go nd =
    int '(' (List.length nd.linear);
    List.iter (fun (r, _) -> rd r) nd.linear;
    List.iter
      (fun (r, sub) ->
        Buffer.add_char b 'F';
        rd r;
        go sub)
      nd.factors;
    List.iter
      (fun (_, rs) ->
        int 'R' (List.length rs);
        List.iter rd rs)
      nd.residual;
    Buffer.add_char b ')'
  in
  go t.body;
  Buffer.contents b

(* Layout of the geometry argument: the tile's counts, each counter's base
   and per-axis increments, the output's base and increments. *)
let ctr_off t c = t.rank + (c * (t.rank + 1))
let out_off t = ctr_off t t.nctrs

let program t =
  let b = Buffer.create 4096 in
  let line indent fmt =
    Buffer.add_string b (String.make (2 * indent) ' ');
    Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt
  in
  let n = t.rank in
  line 0 "external fget : floatarray -> int -> float = \"%%floatarray_unsafe_get\"";
  line 0
    "external fset : floatarray -> int -> float -> unit = \"%%floatarray_unsafe_set\"";
  line 0 "external iget : int array -> int -> int = \"%%array_unsafe_get\"";
  line 0 "external sget : floatarray array -> int -> floatarray = \"%%array_unsafe_get\"";
  line 0 "external register : string -> 'a -> unit = \"caml_register_named_value\"";
  line 0 "";
  line 0 "let run (d : floatarray array) (k : floatarray) (g : int array)";
  line 1 "(z : int array) =";
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
  let nk = Float.Array.length (coeffs t.body) in
  let nz = Array.length (deltas t.body) in
  for j = 0 to nk - 1 do
    line 1 "let k%d = fget k %d in" j j
  done;
  for j = 0 to nz - 1 do
    line 1 "let z%d = iget z %d in" j j
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
  let nextk = ref 0 and nextz = ref 0 in
  let take r =
    let v = !r in
    incr r;
    v
  in
  let load r zi = Printf.sprintf "fget s%d (p%d + z%d)" r.slot r.ctr zi in
  let rec emit depth nd =
    let a = Printf.sprintf "a%d" depth in
    line ind "let %s = k%d in" a (take nextk);
    List.iter
      (fun (r, _) ->
        let kw = take nextk in
        let zi = take nextz in
        line ind "let %s = %s +. (k%d *. %s) in" a a kw (load r zi))
      nd.linear;
    List.iter
      (fun (r, sub) ->
        let zi = take nextz in
        emit (depth + 1) sub;
        line ind "let %s = %s +. (%s *. a%d) in" a a (load r zi) (depth + 1))
      nd.factors;
    if nd.residual <> [] then begin
      let rv = Printf.sprintf "r%d" depth in
      line ind "let %s = k%d in" rv (take nextk);
      List.iter
        (fun (_, rs) ->
          let kc = take nextk in
          let prod =
            List.fold_left
              (fun acc r -> Printf.sprintf "%s *. %s" acc (load r (take nextz)))
              (Printf.sprintf "k%d" kc) rs
          in
          line ind "let %s = %s +. (%s) in" rv rv prod)
        nd.residual;
      line ind "let %s = %s +. %s in" a a rv
    end
  in
  emit 0 t.body;
  line ind "fset out o a0";
  for i = n - 1 downto 0 do
    line (i + 1) "done"
  done;
  Buffer.contents b

let registration name = Printf.sprintf "\nlet () = register %S run\n" name
