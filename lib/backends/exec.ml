open Sf_util
open Sf_mesh
open Snowflake

let run_rect_interp grids ~params (s : Stencil.t) rect =
  let out = Grids.find grids s.Stencil.output in
  let read g m p = Mesh.get (Grids.find grids g) (Affine.apply m p) in
  Domain.iter rect (fun p ->
      let v = Expr.eval s.Stencil.expr ~read:(fun g m -> read g m p) ~params in
      Mesh.set out (Affine.apply s.Stencil.out_map p) v)

(* ------------------------------------------------------------------- *)
(* Polynomial stencils: the expression, factored (Polyform.factorize),   *)
(* becomes a Native_emit.node.  Reads are resolved to a slot (their     *)
(* grid's data), a counter (one flat position per distinct stride·scale *)
(* vector, so grids advancing in lockstep share it) and a constant      *)
(* delta off that counter.  All of this reads grid shapes and parameter *)
(* values only, so it is done once per specialisation; running a tile  *)
(* costs index arithmetic only.  The closure tier below evaluates the   *)
(* node; Native runs it as compiled code once the specialisation is hot.*)
(* ------------------------------------------------------------------- *)

(* The closure tier evaluates a node one point at a time, performing its
   float operations in its order.  When every read advances in lockstep
   (one counter: every HPGMG smoother and residual) the evaluator takes
   that one position; otherwise it takes the array of counter positions.
   Both read the same node, so both agree with the emitted code.  An
   evaluator is staged: the specialisation builds it from the node, and
   each bound instance applies it to its slot data. *)
type evaluator = One of (int -> float) | Many of (int array -> float)
type 'a staged = floatarray array -> 'a

external g : floatarray -> int -> float = "%floatarray_unsafe_get"
external sl : 'a array -> int -> 'a = "%array_unsafe_get"

(* Arity-specialised inner evaluators for the linear taps of a lockstep
   node: the common case (CC Laplacian, Jacobi, boundaries, restriction,
   the factors' sub-nodes) becomes an unrolled multiply-add chain with the
   tap deltas resident in the closure. *)
let deg1_inner ~kconst ~(taps : (floatarray * int * float) array) =
  match taps with
  | [| (a0, d0, w0) |] -> fun pos -> kconst +. (w0 *. g a0 (pos + d0))
  | [| (a0, d0, w0); (a1, d1, w1) |] ->
      fun pos -> kconst +. (w0 *. g a0 (pos + d0)) +. (w1 *. g a1 (pos + d1))
  | [| (a0, d0, w0); (a1, d1, w1); (a2, d2, w2) |] ->
      fun pos ->
        kconst
        +. (w0 *. g a0 (pos + d0))
        +. (w1 *. g a1 (pos + d1))
        +. (w2 *. g a2 (pos + d2))
  | [| (a0, d0, w0); (a1, d1, w1); (a2, d2, w2); (a3, d3, w3) |] ->
      fun pos ->
        kconst
        +. (w0 *. g a0 (pos + d0))
        +. (w1 *. g a1 (pos + d1))
        +. (w2 *. g a2 (pos + d2))
        +. (w3 *. g a3 (pos + d3))
  | [|
   (a0, d0, w0); (a1, d1, w1); (a2, d2, w2); (a3, d3, w3); (a4, d4, w4);
  |] ->
      fun pos ->
        kconst
        +. (w0 *. g a0 (pos + d0))
        +. (w1 *. g a1 (pos + d1))
        +. (w2 *. g a2 (pos + d2))
        +. (w3 *. g a3 (pos + d3))
        +. (w4 *. g a4 (pos + d4))
  | [|
   (a0, d0, w0);
   (a1, d1, w1);
   (a2, d2, w2);
   (a3, d3, w3);
   (a4, d4, w4);
   (a5, d5, w5);
  |] ->
      fun pos ->
        kconst
        +. (w0 *. g a0 (pos + d0))
        +. (w1 *. g a1 (pos + d1))
        +. (w2 *. g a2 (pos + d2))
        +. (w3 *. g a3 (pos + d3))
        +. (w4 *. g a4 (pos + d4))
        +. (w5 *. g a5 (pos + d5))
  | [|
   (a0, d0, w0);
   (a1, d1, w1);
   (a2, d2, w2);
   (a3, d3, w3);
   (a4, d4, w4);
   (a5, d5, w5);
   (a6, d6, w6);
  |] ->
      fun pos ->
        kconst
        +. (w0 *. g a0 (pos + d0))
        +. (w1 *. g a1 (pos + d1))
        +. (w2 *. g a2 (pos + d2))
        +. (w3 *. g a3 (pos + d3))
        +. (w4 *. g a4 (pos + d4))
        +. (w5 *. g a5 (pos + d5))
        +. (w6 *. g a6 (pos + d6))
  | [|
   (a0, d0, w0);
   (a1, d1, w1);
   (a2, d2, w2);
   (a3, d3, w3);
   (a4, d4, w4);
   (a5, d5, w5);
   (a6, d6, w6);
   (a7, d7, w7);
  |] ->
      fun pos ->
        kconst
        +. (w0 *. g a0 (pos + d0))
        +. (w1 *. g a1 (pos + d1))
        +. (w2 *. g a2 (pos + d2))
        +. (w3 *. g a3 (pos + d3))
        +. (w4 *. g a4 (pos + d4))
        +. (w5 *. g a5 (pos + d5))
        +. (w6 *. g a6 (pos + d6))
        +. (w7 *. g a7 (pos + d7))
  | taps ->
      fun pos ->
        let acc = ref kconst in
        for m = 0 to Array.length taps - 1 do
          let a, d, w = Array.unsafe_get taps m in
          acc := !acc +. (w *. g a (pos + d))
        done;
        !acc

(* Unshared higher-degree monomials, evaluated directly from parallel
   (unboxed) tables: one loop per monomial degree, in the node's order
   (its residual is sorted by degree). *)
let residual_inner (monos : (float * Native_emit.read list) list) :
    (int -> float) staged =
  let table deg =
    let ms = List.filter (fun (_, rs) -> List.length rs = deg) monos in
    let count = List.length ms in
    let w = Array.make (max count 1) 0. in
    let slots = Array.make (max (count * deg) 1) 0 in
    let deltas = Array.make (max (count * deg) 1) 0 in
    List.iteri
      (fun i (c, rs) ->
        w.(i) <- c;
        List.iteri
          (fun t (r : Native_emit.read) ->
            slots.((i * deg) + t) <- r.slot;
            deltas.((i * deg) + t) <- r.delta)
          rs)
      ms;
    (count, w, slots, deltas)
  in
  let n2, w2, s2, d2 = table 2 in
  let n3, w3, s3, d3 = table 3 in
  let n4, w4, s4, d4 = table 4 in
  fun d ->
    let a2 = Array.map (sl d) s2 and a3 = Array.map (sl d) s3 in
    let a4 = Array.map (sl d) s4 in
    fun pos ->
      let acc = ref 0. in
      for m = 0 to n2 - 1 do
        let b = m * 2 in
        acc :=
          !acc
          +. Array.unsafe_get w2 m
             *. g (Array.unsafe_get a2 b) (pos + Array.unsafe_get d2 b)
             *. g
                  (Array.unsafe_get a2 (b + 1))
                  (pos + Array.unsafe_get d2 (b + 1))
      done;
      for m = 0 to n3 - 1 do
        let b = m * 3 in
        acc :=
          !acc
          +. Array.unsafe_get w3 m
             *. g (Array.unsafe_get a3 b) (pos + Array.unsafe_get d3 b)
             *. g
                  (Array.unsafe_get a3 (b + 1))
                  (pos + Array.unsafe_get d3 (b + 1))
             *. g
                  (Array.unsafe_get a3 (b + 2))
                  (pos + Array.unsafe_get d3 (b + 2))
      done;
      for m = 0 to n4 - 1 do
        let b = m * 4 in
        acc :=
          !acc
          +. Array.unsafe_get w4 m
             *. g (Array.unsafe_get a4 b) (pos + Array.unsafe_get d4 b)
             *. g
                  (Array.unsafe_get a4 (b + 1))
                  (pos + Array.unsafe_get d4 (b + 1))
             *. g
                  (Array.unsafe_get a4 (b + 2))
                  (pos + Array.unsafe_get d4 (b + 2))
             *. g
                  (Array.unsafe_get a4 (b + 3))
                  (pos + Array.unsafe_get d4 (b + 3))
      done;
      !acc

(* The node over one shared position. *)
let rec eval_one (f : Native_emit.node) : (int -> float) staged =
  let taps =
    Array.of_list
      (List.map (fun ((r : Native_emit.read), w) -> (r.slot, r.delta, w)) f.linear)
  in
  let subs =
    Array.of_list
      (List.map
         (fun ((r : Native_emit.read), sub) -> (r.slot, r.delta, eval_one sub))
         f.factors)
  in
  let res = match f.residual with [] -> None | monos -> Some (residual_inner monos) in
  fun d ->
    let lin =
      deg1_inner ~kconst:f.const
        ~taps:(Array.map (fun (s, dl, w) -> (sl d s, dl, w)) taps)
    in
    if Array.length subs = 0 && Option.is_none res then lin
    else
      let subs = Array.map (fun (s, dl, sub) -> (sl d s, dl, sub d)) subs in
      let res = Option.map (fun r -> r d) res in
      fun pos ->
        let acc = ref (lin pos) in
        for i = 0 to Array.length subs - 1 do
          let a, dl, sub = Array.unsafe_get subs i in
          acc := !acc +. (g a (pos + dl) *. sub pos)
        done;
        (match res with Some r -> acc := !acc +. r pos | None -> ());
        !acc

(* The same node over one position per counter.  Linear taps sit in
   parallel arrays: every bound instance keeps its evaluators alive. *)
let rec eval_many (nd : Native_emit.node) : (int array -> float) staged =
  let tap (r : Native_emit.read) = (r.slot, r.ctr, r.delta) in
  let field f =
    Array.of_list (List.map (fun ((r : Native_emit.read), _) -> f r) nd.linear)
  in
  let ls = field (fun r -> r.slot) and lc = field (fun r -> r.ctr) in
  let ld = field (fun r -> r.delta) in
  let lw = Float.Array.of_list (List.map snd nd.linear) in
  let facs = Array.of_list (List.map (fun (r, s) -> (tap r, eval_many s)) nd.factors) in
  let res =
    Array.of_list
      (List.map (fun (w, rs) -> (w, Array.of_list (List.map tap rs))) nd.residual)
  in
  let k = nd.const in
  fun d ->
    let la = Array.map (sl d) ls in
    let facs = Array.map (fun ((s, c, dl), sub) -> ((sl d s, c, dl), sub d)) facs in
    let res =
      Array.map (fun (w, xs) -> (w, Array.map (fun (s, c, dl) -> (sl d s, c, dl)) xs)) res
    in
    fun pos ->
      let acc = ref k in
      for i = 0 to Array.length la - 1 do
        acc :=
          !acc
          +. Float.Array.unsafe_get lw i
             *. g (Array.unsafe_get la i)
                  (Array.unsafe_get pos (Array.unsafe_get lc i) + Array.unsafe_get ld i)
      done;
      for i = 0 to Array.length facs - 1 do
        let (a, c, dl), sub = Array.unsafe_get facs i in
        acc := !acc +. (g a (Array.unsafe_get pos c + dl) *. sub pos)
      done;
      if Array.length res > 0 then begin
        let r = ref 0. in
        for m = 0 to Array.length res - 1 do
          let w, xs = Array.unsafe_get res m in
          let q = ref w in
          for t = 0 to Array.length xs - 1 do
            let a, c, dl = Array.unsafe_get xs t in
            q := !q *. g a (Array.unsafe_get pos c + dl)
          done;
          r := !r +. !q
        done;
        acc := !acc +. !r
      end;
      !acc

(* Bodies that are not polynomial (a grid read in a denominator) walk the
   expression at every point, over positions like [eval_many]'s. *)
let rec walk ~params ~read (e : Expr.t) : (int array -> float) staged =
  match e with
  | Expr.Const c -> fun _ _ -> c
  | Expr.Param p ->
      let v = params p in
      fun _ _ -> v
  | Expr.Read (gr, m) ->
      let ({ slot; ctr; delta } : Native_emit.read) = read (gr, m) in
      fun d ->
        let a = sl d slot in
        fun pos -> g a (sl pos ctr + delta)
  | Expr.Neg a ->
      let fa = walk ~params ~read a in
      fun d ->
        let fa = fa d in
        fun pos -> -.fa pos
  | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Div (a, b) -> (
      let fa = walk ~params ~read a and fb = walk ~params ~read b in
      fun d ->
        let fa = fa d and fb = fb d in
        match e with
        | Expr.Add _ -> fun pos -> fa pos +. fb pos
        | Expr.Sub _ -> fun pos -> fa pos -. fb pos
        | Expr.Mul _ -> fun pos -> fa pos *. fb pos
        | _ -> fun pos -> fa pos /. fb pos)

type form = {
  emit : Native_emit.t option;  (* [None]: not polynomial, closure tier only *)
  rank : int;
  slots : int array;  (* the slots' grids, read grids then the output, by index *)
  ctr_ss : int array array;  (* per counter: stride·scale per axis *)
  coeffs : floatarray;
  eval : evaluator staged;
  out_strides : int array;
  out_map : Affine.t;
}

let form ~grid ~shapes ~params (s : Stencil.t) =
  let grid_shape g = shapes.(grid g) in
  let slots = ref [] and ctrs = ref [] in
  let index_of l x =
    let rec go i = function
      | [] ->
          l := !l @ [ x ];
          i
      | y :: rest -> if y = x then i else go (i + 1) rest
    in
    go 0 !l
  in
  let read (g, (m : Affine.t)) : Native_emit.read =
    let strides = Ivec.strides (grid_shape g) in
    {
      slot = index_of slots g;
      ctr = index_of ctrs (Array.mapi (fun i st -> st * m.Affine.scale.(i)) strides);
      delta = Ivec.dot strides m.Affine.offset;
    }
  in
  let degree (_, rs) = List.length rs in
  let rec node (f : Polyform.factored) : Native_emit.node =
    {
      const = f.Polyform.fconst;
      linear = List.map (fun (r, w) -> (read r, w)) f.Polyform.flinear;
      factors = List.map (fun (r, sub) -> (read r, node sub)) f.Polyform.ffactors;
      residual =
        List.map
          (fun (m : Polyform.mono) -> (m.Polyform.coeff, List.map read m.Polyform.reads))
          f.Polyform.fresidual
        |> List.stable_sort (fun a b -> compare (degree a) (degree b));
    }
  in
  let body, eval =
    match Polyform.of_expr ~params s.Stencil.expr with
    | Some poly ->
        let body = node (Polyform.factorize poly) in
        if List.length !ctrs <= 1 then
          let f = eval_one body in
          (Some body, fun d -> One (f d))
        else
          let f = eval_many body in
          (Some body, fun d -> Many (f d))
    | None ->
        let f = walk ~params ~read s.Stencil.expr in
        (None, fun d -> Many (f d))
  in
  let out_shape = grid_shape s.Stencil.output in
  let rank = Ivec.dims out_shape in
  let nslots = List.length !slots in
  {
    emit =
      Option.map
        (fun body -> { Native_emit.rank; nslots; nctrs = List.length !ctrs; body })
        body;
    rank;
    slots = Array.of_list (List.map grid (!slots @ [ s.Stencil.output ]));
    ctr_ss = Array.of_list !ctrs;
    coeffs = Option.fold ~none:(Float.Array.create 0) ~some:Native_emit.coeffs body;
    eval;
    out_strides = Ivec.strides out_shape;
    out_map = s.Stencil.out_map;
  }

let native_form f = f.emit

(* A form attached to one instance's slot data. *)
type bound = { form : form; data : floatarray array; eval : evaluator }

let attach form data =
  let data = Array.map (Array.get data) form.slots in
  { form; data; eval = form.eval data }

(* Flat index, at the start of the current row, of the counter (or the
   output) whose geometry starts at [off]; [oidx] holds the outer axes'
   indices. *)
let row_start geom oidx ~inner off =
  let p = ref geom.(off) in
  for i = 0 to inner - 1 do
    p := !p + (oidx.(i) * geom.(off + 1 + i))
  done;
  !p

(* Run one tile on the closure tier.  [geom] is laid out as
   Native_emit.program reads it: the tile's counts, each counter's base
   and per-axis increments, then the output's; a base's inner-axis
   increment sits last in its block.  [oidx] and [pos] are scratch
   buffers owned by the caller's task. *)
let run_cold { form; data; eval } geom oidx pos =
  let n = form.rank and nc = Array.length form.ctr_ss in
  let inner = n - 1 and oo = n + (nc * (n + 1)) in
  let outer_total = ref 1 in
  for i = 0 to inner - 1 do
    outer_total := !outer_total * geom.(i)
  done;
  let inner_cnt = geom.(inner) and out_inc = geom.(oo + n) in
  let out_data = sl data (Array.length data - 1) in
  Array.fill oidx 0 (Array.length oidx) 0;
  for _row = 1 to !outer_total do
    let o = ref (row_start geom oidx ~inner oo) in
    (match eval with
    | One f ->
        let p = ref (if nc = 0 then 0 else row_start geom oidx ~inner n) in
        let inc = if nc = 0 then 0 else geom.(n + n) in
        for _ = 1 to inner_cnt do
          Float.Array.unsafe_set out_data !o (f !p);
          p := !p + inc;
          o := !o + out_inc
        done
    | Many f ->
        for c = 0 to nc - 1 do
          pos.(c) <- row_start geom oidx ~inner (n + (c * (n + 1)))
        done;
        for _ = 1 to inner_cnt do
          Float.Array.unsafe_set out_data !o (f pos);
          o := !o + out_inc;
          for c = 0 to nc - 1 do
            Array.unsafe_set pos c
              (Array.unsafe_get pos c + Array.unsafe_get geom (n + (c * (n + 1)) + n))
          done
        done);
    (* odometer over the outer axes *)
    let i = ref (inner - 1) in
    while !i >= 0 do
      oidx.(!i) <- oidx.(!i) + 1;
      if oidx.(!i) >= geom.(!i) then begin
        oidx.(!i) <- 0;
        decr i
      end
      else i := -1
    done
  done

(* One tile's geometry, laid out as [run_cold] and the emitted code read
   it. *)
let geometry form rect =
  let cnt = Domain.counts rect in
  let n = Ivec.dims cnt in
  let nc = Array.length form.ctr_ss in
  let geom = Array.make (n + ((nc + 1) * (n + 1))) 0 in
  Array.blit cnt 0 geom 0 n;
  let place off base scale =
    geom.(off) <- base;
    for i = 0 to n - 1 do
      geom.(off + 1 + i) <- scale.(i) * rect.Domain.rstride.(i)
    done
  in
  Array.iteri
    (fun c ss -> place (n + (c * (n + 1))) (Ivec.dot ss rect.Domain.rlo) ss)
    form.ctr_ss;
  place
    (n + (nc * (n + 1)))
    (Ivec.dot form.out_strides (Affine.apply form.out_map rect.Domain.rlo))
    (Array.mapi (fun i st -> st * form.out_map.Affine.scale.(i)) form.out_strides);
  geom

let scratch form = max form.rank (Array.length form.ctr_ss)

let run_tile native b geom oidx pos =
  match native with
  | None -> run_cold b geom oidx pos
  | Some (native, index) -> (
      match Native.select native with
      | Native.Run fs -> (Array.unsafe_get fs index) b.data b.form.coeffs geom
      | Native.Interpret -> run_cold b geom oidx pos
      | Native.Measure ->
          let t0 = Native.clock () in
          run_cold b geom oidx pos;
          Native.charge native (Native.clock () - t0))

let validate_shapes ~grid_shape ~shape (s : Stencil.t) =
  let n = Ivec.dims shape in
  let find g =
    match grid_shape g with
    | Some gs -> gs
    | None -> invalid_arg (Printf.sprintf "Grids.find: unbound grid %S" g)
  in
  List.iter
    (fun g ->
      let d = Ivec.dims (find g) in
      if d <> n then
        invalid_arg
          (Printf.sprintf
             "stencil %s: grid %S has rank %d but iteration shape has rank %d"
             s.Stencil.label g d n))
    (Stencil.grids s);
  match Sf_analysis.Footprint.check_in_bounds ~shape ~grid_shape:find s with
  | Ok () -> ()
  | Error msg -> invalid_arg msg
