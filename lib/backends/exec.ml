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
(* Closure-compiled fallback: one slot per distinct (grid, map) pair    *)
(* with incrementally maintained flat indices.  Used for the rare       *)
(* non-polynomial expressions (e.g. a grid read in a denominator).      *)
(* ------------------------------------------------------------------- *)

type slot = { data : floatarray; base : int; inc : int array }

let make_slot (mesh : Mesh.t) (m : Affine.t) (rect : Domain.resolved) =
  let strides = Mesh.strides mesh in
  let n = Array.length strides in
  let origin = Affine.apply m rect.Domain.rlo in
  let base = Ivec.dot strides origin in
  let inc =
    Array.init n (fun i ->
        strides.(i) * m.Affine.scale.(i) * rect.Domain.rstride.(i))
  in
  { data = Mesh.data mesh; base; inc }

let compile_expr expr ~params ~slot_index ~cur =
  let rec go = function
    | Expr.Const c -> fun () -> c
    | Expr.Param p ->
        let v = params p in
        fun () -> v
    | Expr.Read (g, m) ->
        let j, data = slot_index (g, m) in
        fun () -> Float.Array.unsafe_get data (Array.unsafe_get cur j)
    | Expr.Neg a ->
        let fa = go a in
        fun () -> -.fa ()
    | Expr.Add (a, b) ->
        let fa = go a and fb = go b in
        fun () -> fa () +. fb ()
    | Expr.Sub (a, b) ->
        let fa = go a and fb = go b in
        fun () -> fa () -. fb ()
    | Expr.Mul (a, b) ->
        let fa = go a and fb = go b in
        fun () -> fa () *. fb ()
    | Expr.Div (a, b) ->
        let fa = go a and fb = go b in
        fun () -> fa () /. fb ()
  in
  go expr

let run_rect_closure grids ~params (s : Stencil.t) rect =
  let cnt = Domain.counts rect in
  let n = Ivec.dims cnt in
  let reads = Stencil.reads s in
  let k = List.length reads in
  let slots =
    Array.of_list
      (List.map (fun (g, m) -> make_slot (Grids.find grids g) m rect) reads)
  in
  let out_slot =
    make_slot (Grids.find grids s.Stencil.output) s.Stencil.out_map rect
  in
  let cur = Array.make (max k 1) 0 in
  let slot_index (g, m) =
    let rec find j = function
      | [] -> assert false (* reads is exactly the list we indexed *)
      | (g', m') :: rest ->
          if String.equal g g' && Affine.equal m m' then (j, slots.(j).data)
          else find (j + 1) rest
    in
    find 0 reads
  in
  let eval = compile_expr s.Stencil.expr ~params ~slot_index ~cur in
  let out_data = out_slot.data in
  let inner = n - 1 in
  let inner_cnt = cnt.(inner) in
  let inner_incs = Array.map (fun sl -> sl.inc.(inner)) slots in
  let out_inner_inc = out_slot.inc.(inner) in
  let outer_total = ref 1 in
  for i = 0 to inner - 1 do
    outer_total := !outer_total * cnt.(i)
  done;
  let oidx = Array.make (max inner 1) 0 in
  for _row = 0 to !outer_total - 1 do
    for j = 0 to k - 1 do
      let sl = slots.(j) in
      let flat = ref sl.base in
      for i = 0 to inner - 1 do
        flat := !flat + (oidx.(i) * sl.inc.(i))
      done;
      cur.(j) <- !flat
    done;
    let out_flat = ref out_slot.base in
    for i = 0 to inner - 1 do
      out_flat := !out_flat + (oidx.(i) * out_slot.inc.(i))
    done;
    for _c = 0 to inner_cnt - 1 do
      Float.Array.unsafe_set out_data !out_flat (eval ());
      out_flat := !out_flat + out_inner_inc;
      for j = 0 to k - 1 do
        cur.(j) <- cur.(j) + inner_incs.(j)
      done
    done;
    let rec bump i =
      if i >= 0 then begin
        oidx.(i) <- oidx.(i) + 1;
        if oidx.(i) >= cnt.(i) then begin
          oidx.(i) <- 0;
          bump (i - 1)
        end
      end
    in
    bump (inner - 1)
  done

(* ------------------------------------------------------------------- *)
(* Polynomial stencils: the expression, factored (Polyform.factorize),   *)
(* becomes a Native_emit.node.  Reads are resolved to a slot (their     *)
(* grid's data), a counter (one flat position per distinct stride·scale *)
(* vector, so grids advancing in lockstep share it) and a constant      *)
(* delta off that counter.  All of this is computed once per kernel     *)
(* bind; running a tile costs index arithmetic only.  The closure       *)
(* tier below evaluates the node; Native runs the same node as compiled *)
(* code once the structure is hot.                                      *)
(* ------------------------------------------------------------------- *)

(* The closure tier evaluates a node one point at a time, performing its
   float operations in its order.  When every read advances in lockstep
   (one counter: every HPGMG smoother and residual) the evaluator takes
   that one position; otherwise it takes the array of counter positions.
   Both read the same node, so both agree with the emitted code. *)
type evaluator = One of (int -> float) | Many of (int array -> float)

(* Arity-specialised inner evaluators for the linear taps of a lockstep
   node: the common case (CC Laplacian, Jacobi, boundaries, restriction,
   the factors' sub-nodes) becomes an unrolled multiply-add chain with the
   tap deltas resident in the closure. *)
let deg1_inner ~kconst ~(taps : (floatarray * int * float) array) =
  let g = Float.Array.unsafe_get in
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
let residual_inner ~tap_of (monos : (float * Native_emit.read list) list) =
  let by_degree d = List.filter (fun (_, rs) -> List.length rs = d) monos in
  let table d =
    let ms = by_degree d in
    let count = List.length ms in
    let w = Array.make (max count 1) 0. in
    let arrs = Array.make (max (count * d) 1) (Float.Array.create 0) in
    let deltas = Array.make (max (count * d) 1) 0 in
    List.iteri
      (fun i (c, rs) ->
        w.(i) <- c;
        List.iteri
          (fun t r ->
            let a, delta = tap_of r in
            arrs.((i * d) + t) <- a;
            deltas.((i * d) + t) <- delta)
          rs)
      ms;
    (count, w, arrs, deltas)
  in
  let n2, w2, a2, d2 = table 2 in
  let n3, w3, a3, d3 = table 3 in
  let n4, w4, a4, d4 = table 4 in
  let g = Float.Array.unsafe_get in
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
let rec eval_one slots (f : Native_emit.node) =
  let tap_of (r : Native_emit.read) = (slots.(r.slot), r.delta) in
  let taps =
    Array.of_list
      (List.map
         (fun (r, w) ->
           let a, d = tap_of r in
           (a, d, w))
         f.linear)
  in
  let lin = deg1_inner ~kconst:f.const ~taps in
  match (f.factors, f.residual) with
  | [], [] -> lin
  | factors, residual ->
      let subs =
        Array.of_list
          (List.map
             (fun (r, sub) ->
               let a, d = tap_of r in
               (a, d, eval_one slots sub))
             factors)
      in
      let res =
        match residual with
        | [] -> None
        | monos -> Some (residual_inner ~tap_of monos)
      in
      fun pos ->
        let acc = ref (lin pos) in
        for i = 0 to Array.length subs - 1 do
          let a, d, sub = Array.unsafe_get subs i in
          acc := !acc +. (Float.Array.unsafe_get a (pos + d) *. sub pos)
        done;
        (match res with Some r -> acc := !acc +. r pos | None -> ());
        !acc

(* The same node over one position per counter.  Linear taps sit in
   parallel arrays: every compiled kernel keeps its evaluators alive. *)
let rec eval_many slots (nd : Native_emit.node) =
  let g = Float.Array.unsafe_get in
  let tap (r : Native_emit.read) = (slots.(r.slot), r.ctr, r.delta) in
  let field f =
    Array.of_list (List.map (fun ((r : Native_emit.read), _) -> f r) nd.linear)
  in
  let la = field (fun r -> slots.(r.slot)) and lc = field (fun r -> r.ctr) in
  let ld = field (fun r -> r.delta) in
  let lw = Float.Array.of_list (List.map snd nd.linear) in
  let facs =
    Array.of_list (List.map (fun (r, s) -> (tap r, eval_many slots s)) nd.factors)
  in
  let res =
    Array.of_list
      (List.map (fun (w, rs) -> (w, Array.of_list (List.map tap rs))) nd.residual)
  in
  let k = nd.const in
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
      let (a, c, d), sub = Array.unsafe_get facs i in
      acc := !acc +. (g a (Array.unsafe_get pos c + d) *. sub pos)
    done;
    if Array.length res > 0 then begin
      let r = ref 0. in
      for m = 0 to Array.length res - 1 do
        let w, xs = Array.unsafe_get res m in
        let q = ref w in
        for t = 0 to Array.length xs - 1 do
          let a, c, d = Array.unsafe_get xs t in
          q := !q *. g a (Array.unsafe_get pos c + d)
        done;
        r := !r +. !q
      done;
      acc := !acc +. !r
    end;
    !acc

type prep = {
  structure : Native.structure;
  rank : int;
  slots : floatarray array;  (* read grids' data, then the output's *)
  ctr_ss : int array array;  (* per counter: stride·scale per axis *)
  coeffs : floatarray;
  deltas : int array;
  eval : evaluator;
  out_data : floatarray;
  out_strides : int array;
  out_map : Affine.t;
}

let prepare_poly grids (s : Stencil.t) (poly : Polyform.t) =
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
    let strides = Mesh.strides (Grids.find grids g) in
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
  let body = node (Polyform.factorize poly) in
  let out_mesh = Grids.find grids s.Stencil.output in
  let read_data = List.map (fun g -> Mesh.data (Grids.find grids g)) !slots in
  let slots = Array.of_list (read_data @ [ Mesh.data out_mesh ]) in
  let form =
    {
      Native_emit.rank = Mesh.dims out_mesh;
      nslots = Array.length slots - 1;
      nctrs = List.length !ctrs;
      body;
    }
  in
  {
    structure = Native.structure form;
    rank = form.Native_emit.rank;
    slots;
    ctr_ss = Array.of_list !ctrs;
    coeffs = Native_emit.coeffs body;
    deltas = Native_emit.deltas body;
    eval =
      (if List.length !ctrs <= 1 then One (eval_one slots body)
       else Many (eval_many slots body));
    out_data = Mesh.data out_mesh;
    out_strides = Mesh.strides out_mesh;
    out_map = s.Stencil.out_map;
  }

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
   increment sits last in its block.  [oidx] and [pos] are the tile's own
   scratch buffers. *)
let run_cold prep geom oidx pos =
  let n = prep.rank and nc = Array.length prep.ctr_ss in
  let inner = n - 1 and oo = n + (nc * (n + 1)) in
  let outer_total = ref 1 in
  for i = 0 to inner - 1 do
    outer_total := !outer_total * geom.(i)
  done;
  let inner_cnt = geom.(inner) and out_inc = geom.(oo + n) in
  let out_data = prep.out_data in
  Array.fill oidx 0 (Array.length oidx) 0;
  for _row = 1 to !outer_total do
    let o = ref (row_start geom oidx ~inner oo) in
    (match prep.eval with
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

(* Instantiate one tile of a prepared polynomial stencil: all geometry is
   computed here, once; the returned thunk asks the native tier what to
   run and runs it.  The thunk owns its odometer and position buffers, so
   distinct tiles may run concurrently while one tile's thunk is reused
   by every run of its instance for free.  It is the only closure per
   tile: every bound instance keeps its tiles alive. *)
let instantiate_poly prep rect =
  let cnt = Domain.counts rect in
  let n = Ivec.dims cnt in
  let nc = Array.length prep.ctr_ss in
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
    prep.ctr_ss;
  place
    (n + (nc * (n + 1)))
    (Ivec.dot prep.out_strides (Affine.apply prep.out_map rect.Domain.rlo))
    (Array.mapi (fun i st -> st * prep.out_map.Affine.scale.(i)) prep.out_strides);
  let oidx = Array.make (max (n - 1) 1) 0 and pos = Array.make (max nc 1) 0 in
  fun () ->
    match Native.select prep.structure with
    | Native.Run f -> f prep.slots prep.coeffs geom prep.deltas
    | Native.Interpret -> run_cold prep geom oidx pos
    | Native.Measure ->
        let t0 = Native.clock () in
        run_cold prep geom oidx pos;
        Native.charge prep.structure (Native.clock () - t0)

let nop () = ()

let prepare_compiled grids ~params (s : Stencil.t) =
  match Polyform.of_expr ~params s.Stencil.expr with
  | Some poly ->
      let prep = prepare_poly grids s poly in
      fun rect ->
        if Domain.is_empty rect then nop else instantiate_poly prep rect
  | None ->
      fun rect () ->
        if not (Domain.is_empty rect) then
          run_rect_closure grids ~params s rect

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

let validate_stencil grids ~shape s =
  validate_shapes ~shape s ~grid_shape:(fun g ->
      Option.map Mesh.shape (Grids.find_opt grids g))
