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
(* One body for every tier: the stencil's expression, resolved.  Each    *)
(* read becomes a load from a slot (its grid's data) at a counter (one   *)
(* flat position per distinct stride·scale vector, so grids advancing in *)
(* lockstep share it) plus a constant delta; each constant and parameter *)
(* becomes an index into the form's coefficients, in tree order.  The    *)
(* operators stay as written, so every tier computes what Expr.eval      *)
(* computes, in the same order, to the bit.  All of this reads grid      *)
(* shapes and parameter values only, so it is done once per              *)
(* specialisation; running a tile costs index arithmetic only.  The      *)
(* closure tier runs the tree as a register program; Native prints it.  *)
(* ------------------------------------------------------------------- *)

external fget : floatarray -> int -> float = "%floatarray_unsafe_get"
external fset : floatarray -> int -> float -> unit = "%floatarray_unsafe_set"
external sl : 'a array -> int -> 'a = "%array_unsafe_get"

(* The closure tier runs the tree as a program built once per
   specialisation: its operators in post-order, each a step over a
   register file that holds the coefficients, then each distinct load of
   a point, then one register per step.  Registers are rows of [width]
   points, so one pass over the steps evaluates a run of points op-major:
   the same operations in the same order at every point, with the
   dispatch paid once per run, not once per point. *)
type program = {
  nk : int;  (* coefficients: registers [0, nk) *)
  lctr : int array;  (* per distinct load: its counter, delta and slot *)
  ldelta : int array;
  lslot : int array;
  steps : int array;
      (* per step: its operator (0 +, 1 -, 2 *, 3 /, 4 negation), then its
         operands' registers; it writes the next register *)
  result : int;  (* the register holding the body's value *)
}

let width = 64

let program nk (body : Native_emit.expr) =
  let loads = Array.of_list (snd (Native_emit.leaves body)) in
  let nl = Array.length loads in
  let steps = ref [] and nsteps = ref 0 in
  let rec reg : Native_emit.expr -> int = function
    | K i -> i
    | Load r -> nk + Option.get (Array.find_index (( = ) r) loads)
    | Neg a -> step 4 (reg a) 0
    | Add (a, b) -> let a = reg a in step 0 a (reg b)
    | Sub (a, b) -> let a = reg a in step 1 a (reg b)
    | Mul (a, b) -> let a = reg a in step 2 a (reg b)
    | Div (a, b) -> let a = reg a in step 3 a (reg b)
  and step code a b =
    steps := b :: a :: code :: !steps;
    incr nsteps;
    nk + nl + !nsteps - 1
  in
  let result = reg body in
  let field f = Array.map f loads in
  {
    nk;
    lctr = field (fun r -> r.ctr);
    ldelta = field (fun r -> r.delta);
    lslot = field (fun r -> r.slot);
    steps = Array.of_list (List.rev !steps);
    result;
  }

(* A run of [m <= width] points: [la] holds each load's slot data, and
   [pos.(c * width + x)] point [x]'s flat position in counter [c] (the
   output's is counter [nc]). *)
let eval_run { nk; lctr; ldelta; steps; result; _ } la regs m pos ~nc out =
  let nl = Array.length la in
  for i = 0 to nl - 1 do
    let a = sl la i and c = sl lctr i * width and dl = sl ldelta i in
    let r = (nk + i) * width in
    for x = 0 to m - 1 do
      fset regs (r + x) (fget a (sl pos (c + x) + dl))
    done
  done;
  for j = 0 to (Array.length steps / 3) - 1 do
    let a = sl steps ((3 * j) + 1) * width and b = sl steps ((3 * j) + 2) * width in
    let d = (nk + nl + j) * width in
    match sl steps (3 * j) with
    | 0 -> for x = 0 to m - 1 do fset regs (d + x) (fget regs (a + x) +. fget regs (b + x)) done
    | 1 -> for x = 0 to m - 1 do fset regs (d + x) (fget regs (a + x) -. fget regs (b + x)) done
    | 2 -> for x = 0 to m - 1 do fset regs (d + x) (fget regs (a + x) *. fget regs (b + x)) done
    | 3 -> for x = 0 to m - 1 do fset regs (d + x) (fget regs (a + x) /. fget regs (b + x)) done
    | _ -> for x = 0 to m - 1 do fset regs (d + x) (-.fget regs (a + x)) done
  done;
  let r = result * width and o = nc * width in
  for x = 0 to m - 1 do
    fset out (sl pos (o + x)) (fget regs (r + x))
  done

type form = {
  emit : Native_emit.t;
  slots : int array;  (* the slots' grids, read grids then the output, by index *)
  ctr_ss : int array array;  (* per counter: stride·scale per axis *)
  coeffs : floatarray;
  program : program;
  run : int;
      (* points per run: [width], or 1 when a point may read what an
         earlier point of its tile wrote *)
  out_strides : int array;
  out_map : Affine.t;
}

(* Whether a point may read a cell that an earlier point of its own tile
   wrote: a read of the output grid at the output's scale whose offset
   from the written cell is a nonzero step that stays inside one of the
   domain's rects, on its lattice (a tile is part of one rect).  Only
   then must a tile run point by point. *)
let sees_own_writes ~shape (s : Stencil.t) =
  let w = s.Stencil.out_map in
  let rects = Domain.resolve ~shape s.Stencil.domain in
  let within step (r : Domain.resolved) =
    Array.for_all2 (fun d st -> d mod st = 0) step r.Domain.rstride
    && Array.for_all2 (fun d ext -> abs d < ext) step (Array.map2 ( - ) r.Domain.rhi r.Domain.rlo)
  in
  List.exists
    (fun (g, (m : Affine.t)) ->
      String.equal g s.Stencil.output
      &&
      if (not (Ivec.equal m.Affine.scale w.Affine.scale)) || Array.mem 0 m.Affine.scale then true
      else
        (* point p reads the cell that point p + step writes *)
        let gap = Array.map2 ( - ) m.Affine.offset w.Affine.offset in
        Array.for_all2 (fun g sc -> g mod sc = 0) gap m.Affine.scale
        &&
        let step = Array.map2 ( / ) gap m.Affine.scale in
        Array.exists (( <> ) 0) step && List.exists (within step) rects)
    (Stencil.reads s)

let form ~shape ~grid ~shapes ~params (s : Stencil.t) =
  let grid_shape g = shapes.(grid g) in
  let slots = ref [] and ctrs = ref [] and coeffs = ref [] in
  let index_of l x =
    let rec go i = function
      | [] ->
          l := !l @ [ x ];
          i
      | y :: rest -> if y = x then i else go (i + 1) rest
    in
    go 0 !l
  in
  let read g (m : Affine.t) : Native_emit.read =
    let strides = Ivec.strides (grid_shape g) in
    {
      slot = index_of slots g;
      ctr = index_of ctrs (Array.mapi (fun i st -> st * m.Affine.scale.(i)) strides);
      delta = Ivec.dot strides m.Affine.offset;
    }
  in
  let k c =
    coeffs := c :: !coeffs;
    Native_emit.K (List.length !coeffs - 1)
  in
  (* left operand first: slots, counters and coefficients in tree order *)
  let rec resolve : Expr.t -> Native_emit.expr = function
    | Expr.Const c -> k c
    | Expr.Param p -> k (params p)
    | Expr.Read (g, m) -> Load (read g m)
    | Expr.Neg a -> Neg (resolve a)
    | Expr.Add (a, b) -> let a = resolve a in Add (a, resolve b)
    | Expr.Sub (a, b) -> let a = resolve a in Sub (a, resolve b)
    | Expr.Mul (a, b) -> let a = resolve a in Mul (a, resolve b)
    | Expr.Div (a, b) -> let a = resolve a in Div (a, resolve b)
  in
  let body = resolve s.Stencil.expr in
  let coeffs = Float.Array.of_list (List.rev !coeffs) in
  let out_shape = grid_shape s.Stencil.output in
  let rank = Ivec.dims out_shape in
  {
    emit = { rank; nslots = List.length !slots; nctrs = List.length !ctrs; body };
    slots = Array.of_list (List.map grid (!slots @ [ s.Stencil.output ]));
    ctr_ss = Array.of_list !ctrs;
    coeffs;
    program = program (Float.Array.length coeffs) body;
    run = (if sees_own_writes ~shape s then 1 else width);
    out_strides = Ivec.strides out_shape;
    out_map = s.Stencil.out_map;
  }

let native_form f = f.emit

(* A form attached to one instance's slot data; [loads] holds each
   distinct load's. *)
type bound = { form : form; data : floatarray array; loads : floatarray array }

let attach form data =
  let data = Array.map (Array.get data) form.slots in
  { form; data; loads = Array.map (Array.get data) form.program.lslot }

(* Flat index, at the start of the current row, of the counter (or the
   output) whose geometry starts at [off]; [oidx] holds the outer axes'
   indices. *)
let row_start geom oidx ~inner off =
  let p = ref geom.(off) in
  for i = 0 to inner - 1 do
    p := !p + (oidx.(i) * geom.(off + 1 + i))
  done;
  !p

(* A run_cold's buffers.  Each domain keeps one spare set: a tile takes
   it out while it runs and puts it back, so a thread switching in
   meanwhile finds none and makes its own, never sharing one. *)
type scratch = { oidx : int array; pos : int array; regs : floatarray }

let spare = Stdlib.Domain.DLS.new_key (fun () -> Atomic.make None)

let take { emit; ctr_ss; program = p; _ } =
  let npos = (Array.length ctr_ss + 1) * width in
  let nregs = (p.nk + Array.length p.lslot + (Array.length p.steps / 3)) * width in
  match Atomic.exchange (Stdlib.Domain.DLS.get spare) None with
  | Some s
    when Array.length s.oidx >= emit.rank
         && Array.length s.pos >= npos
         && Float.Array.length s.regs >= nregs ->
      s
  | Some s ->
      {
        oidx = Array.make (max emit.rank (Array.length s.oidx)) 0;
        pos = Array.make (max npos (Array.length s.pos)) 0;
        regs = Float.Array.make (max nregs (Float.Array.length s.regs)) 0.;
      }
  | None ->
      { oidx = Array.make emit.rank 0; pos = Array.make npos 0; regs = Float.Array.make nregs 0. }

(* Run one tile on the closure tier.  [geom] is laid out as
   Native_emit.program reads it: the tile's counts, each counter's base
   and per-axis increments, then the output's; a base's inner-axis
   increment sits last in its block.  Points are visited row-major and
   evaluated in runs of [form.run], which may span rows. *)
let run_cold { form; data; loads } geom =
  let ({ oidx; pos; regs } as scratch) = take form in
  let n = form.emit.rank and nc = Array.length form.ctr_ss in
  let inner = n - 1 in
  let outer_total = ref 1 in
  for i = 0 to inner - 1 do
    outer_total := !outer_total * geom.(i)
  done;
  let len = geom.(inner) and out_data = sl data (Array.length data - 1) in
  let p = form.program in
  for k = 0 to p.nk - 1 do
    Float.Array.fill regs (k * width) (min form.run (!outer_total * len)) (Float.Array.get form.coeffs k)
  done;
  Array.fill oidx 0 n 0;
  let m = ref 0 in
  for _row = 1 to !outer_total do
    (* the row in pieces that fill the current run *)
    let x0 = ref 0 in
    while !x0 < len do
      let k = min (len - !x0) (form.run - !m) in
      for c = 0 to nc do
        (* counter [c], or the output when [c = nc] *)
        let off = n + (c * (n + 1)) in
        let st = geom.(off + n) in
        let at = row_start geom oidx ~inner off + (!x0 * st) and base = (c * width) + !m in
        for x = 0 to k - 1 do
          Array.unsafe_set pos (base + x) (at + (x * st))
        done
      done;
      m := !m + k;
      x0 := !x0 + k;
      if !m = form.run then begin
        eval_run p loads regs !m pos ~nc out_data;
        m := 0
      end
    done;
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
  done;
  if !m > 0 then eval_run p loads regs !m pos ~nc out_data;
  Atomic.set (Stdlib.Domain.DLS.get spare) (Some scratch)

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

let run_tile (native, index) b geom =
  match Native.select native with
  | Native.Run fs -> (Array.unsafe_get fs index) b.data b.form.coeffs geom
  | Native.Interpret -> run_cold b geom
  | Native.Measure ->
      let t0 = Native.clock () in
      run_cold b geom;
      Native.charge native (Native.clock () - t0)

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
