open Sf_util
open Sf_mesh
open Snowflake
open Sf_hpgmg

module Fault = Sf_resilience.Fault
module Supervisor = Sf_resilience.Supervisor

(* counted only while tracing, beside the recover span *)
let recoveries = Sf_trace.Metrics.counter "spmd.rank_recoveries"

type t = {
  dims : int;
  rank_grid : Ivec.t;
  local_n : int;
  shape : Ivec.t;
  grids : Grids.t;
  dead : (string, Ivec.t) Hashtbl.t;
      (* ranks whose memory is lost, keyed by coordinate suffix *)
  mutable fills : (string * (float array -> float)) list;
      (* per-base interior fills recorded by [fill_interior] (latest per
         base wins) — the static data a recovered rank re-derives *)
  mutable beta_fn : (float array -> float) option;
}

let rank_name base r =
  base ^ "@"
  ^ String.concat "_" (List.map string_of_int (Ivec.to_list r))

let rank_key r = rank_name "" r
let is_dead t r = Hashtbl.mem t.dead (rank_key r)

let ranks t =
  let acc = ref [] in
  let r = Array.make t.dims 0 in
  let rec go axis =
    if axis = t.dims then acc := Array.copy r :: !acc
    else
      for v = 0 to t.rank_grid.(axis) - 1 do
        r.(axis) <- v;
        go (axis + 1)
      done
  in
  go 0;
  List.rev !acc

let mesh_bases dims =
  [ "u"; "f"; "res"; "tmp"; "dinv" ]
  @ List.init dims (fun a -> Nd.beta_name a)

let create ~rank_grid ~local_n =
  let rank_grid = Ivec.of_list rank_grid in
  let dims = Ivec.dims rank_grid in
  if dims < 1 then invalid_arg "Spmd.create: empty rank grid";
  Array.iter
    (fun c -> if c < 1 then invalid_arg "Spmd.create: non-positive rank count")
    rank_grid;
  if local_n < 2 || local_n mod 2 <> 0 then
    invalid_arg "Spmd.create: local_n must be even and >= 2";
  let shape = Ivec.make dims (local_n + 2) in
  let t =
    {
      dims;
      rank_grid;
      local_n;
      shape;
      grids = Grids.create ();
      dead = Hashtbl.create 4;
      fills = [];
      beta_fn = None;
    }
  in
  List.iter
    (fun r ->
      List.iter
        (fun base ->
          let m = Mesh.create shape in
          if String.length base >= 5 && String.sub base 0 5 = "beta_" then
            Mesh.fill m 1.;
          Grids.add t.grids (rank_name base r) m)
        (mesh_bases dims))
    (ranks t);
  t

let global_n t = t.local_n * t.rank_grid.(0)
let h t = 1. /. float_of_int (global_n t)
let params t = [ ("inv_h2", 1. /. (h t *. h t)) ]

let off dims a v =
  let o = Ivec.zero dims in
  o.(a) <- v;
  o

(* One face of one rank: a halo copy from the adjacent rank, the physical
   linear-Dirichlet stencil, or — while the neighbour is dead — a
   zero-gradient one-sided stencil copying the rank's own nearest interior
   plane into the ghost, so sweeps can keep running around a lost rank
   without reading its poisoned meshes. *)
let face_stencil t ~base r axis side =
  let dims = t.dims in
  let my = rank_name base r in
  (* [inward] points from the ghost plane into the rank's own interior *)
  let tag, inward, edge, (plane_lo, plane_hi) =
    match side with
    | `Low -> ("lo", 1, 0, (0, 1))
    | `High -> ("hi", -1, t.rank_grid.(axis) - 1, (-1, 0))
  in
  let lo = Array.make dims 1 and hi = Array.make dims (-1) in
  lo.(axis) <- plane_lo;
  hi.(axis) <- plane_hi;
  let make kind expr =
    Stencil.make
      ~label:(Printf.sprintf "%s_%s_ax%d_%s" kind my axis tag)
      ~output:my ~expr
      ~domain:
        (Domain.of_rect
           (Domain.rect ~lo:(Ivec.to_list lo) ~hi:(Ivec.to_list hi) ()))
      ()
  in
  let own = Expr.read my (off dims axis inward) in
  if r.(axis) = edge then make "bc" (Expr.neg own)
  else begin
    let neighbour = Array.copy r in
    neighbour.(axis) <- r.(axis) - inward;
    if is_dead t neighbour then make "dead" own
    else
      make "halo"
        (Expr.read (rank_name base neighbour) (off dims axis (inward * t.local_n)))
  end

(* Dead ranks are scheduled around: no faces for them, and their alive
   neighbours' facing sides degrade to the one-sided stencils above. *)
let alive t = List.filter (fun r -> not (is_dead t r)) (ranks t)

let exchange_stencils t ~base =
  List.concat_map
    (fun r ->
      List.concat_map
        (fun axis -> [ face_stencil t ~base r axis `Low; face_stencil t ~base r axis `High ])
        (List.init t.dims Fun.id))
    (alive t)

let per_rank_stencil _t stencil r =
  Stencil.rename_grids (fun g -> rank_name g r) stencil
  |> fun s -> Stencil.relabel s (s.Stencil.label ^ rank_name "" r)

(* exchange/red/exchange/black, the colour sweeps over [ranks] (default:
   the alive ones) *)
let gsrb_group ?ranks t ~label =
  let ranks = match ranks with Some rs -> rs | None -> alive t in
  let sweep color = Nd.gsrb_sweep (Nd.vc ~dims:t.dims) ~ncolors:2 ~color in
  Group.make ~label
    (List.concat_map
       (fun color ->
         exchange_stencils t ~base:"u"
         @ List.map (per_rank_stencil t (sweep color)) ranks)
       [ 0; 1 ])

let gsrb_smooth_group t = gsrb_group t ~label:"spmd_gsrb"

let residual_group t =
  Group.make ~label:"spmd_residual"
    (exchange_stencils t ~base:"u"
    @ List.map
        (per_rank_stencil t (Nd.residual (Nd.vc ~dims:t.dims)))
        (alive t))

(* The "rank" fault site: consult the armed clauses once per alive rank;
   a Kill_rank firing loses that rank's memory.  Returns the newly killed
   ranks so callers (and [run_group]) know the current sweep plans are
   stale. *)
let kill_rank t r =
  if not (is_dead t r) then begin
    Hashtbl.replace t.dead (rank_key r) (Array.copy r);
    (* the rank's memory is gone: every mesh it owned reads as poison *)
    List.iter
      (fun base ->
        Mesh.fill (Grids.find t.grids (rank_name base r)) Float.nan)
      (mesh_bases t.dims);
    let module Trace = Sf_trace.Trace in
    if Trace.on () then
      Trace.record_span
        ~args:[ ("rank", Trace.Str (rank_key r)) ]
        Trace.Phase
        ("kill:" ^ rank_key r)
        ~ts_us:(Trace.now_us ()) ~dur_us:0.
  end

let inject_rank_faults t =
  if not (Fault.armed ()) then []
  else begin
    let killed =
      List.filter
        (fun r ->
          match Fault.fire ~site:"rank" ~detail:(rank_key r) with
          | Some Fault.Kill_rank -> true
          | _ -> false)
        (alive t)
    in
    List.iter (kill_rank t) killed;
    killed
  end

let run_group t group =
  (* ranks share the process-wide persistent pool (SF_WORKERS): one wave of
     per-rank stencils farms out across all ranks at once, like the OpenMP
     backend the paper layers its SPMD future work on *)
  let config =
    Sf_backends.Config.with_workers
      (Sf_backends.Pool.workers (Sf_backends.Pool.global ()))
      Sf_backends.Config.default
  in
  (* a rank death invalidates the plan we were handed (its halo stencils
     still read the dead rank's meshes): abort this sweep; the caller's
     next group build schedules around the dead rank *)
  if inject_rank_faults t <> [] then ()
  else begin
    let kernel =
      Sf_backends.Supervise.compile ~config Sf_backends.Jit.Openmp
        ~shape:t.shape group
    in
    let label = group.Snowflake.Group.label in
    let invoke () =
      (* the "halo" fault site: one consultation per exchange sweep *)
      if Fault.armed () then
        ignore (Fault.fire ~site:"halo" ~detail:label : Fault.kind option);
      kernel.Sf_backends.Kernel.run ~params:(params t) t.grids
    in
    (* under an armed campaign, transient halo failures are retried with
       the supervisor's backoff; clean runs call the kernel directly *)
    let run () =
      if Fault.armed () then Supervisor.run ~name:("spmd:" ^ label) [ (label, invoke) ]
      else invoke ()
    in
    let module Trace = Sf_trace.Trace in
    if Trace.on () then
      Trace.span
        ~args:
          [
            ("group", Trace.Str label);
            ("ranks", Trace.Int (List.length (alive t)));
          ]
        Trace.Phase ("spmd:" ^ label) run
    else run ()
  end

let init_dinv t =
  run_group t
    (Group.make ~label:"spmd_dinv"
       (List.map
          (per_rank_stencil t (Nd.dinv (Nd.vc ~dims:t.dims)))
          (alive t)))

(* physical coordinate of local index l on rank r along axis a *)
let coord t r a l = (float_of_int ((r.(a) * t.local_n) + l) -. 0.5) *. h t

let rank_interior t =
  Domain.resolve_rect ~shape:t.shape
    (Domain.rect
       ~lo:(List.init t.dims (fun _ -> 1))
       ~hi:(List.init t.dims (fun _ -> -1))
       ())

let fill_rank_interior t ~base r fn =
  let m = Grids.find t.grids (rank_name base r) in
  Domain.iter (rank_interior t) (fun p ->
      let coords = Array.mapi (fun a l -> coord t r a l) p in
      Mesh.set_flat m (Mesh.flat_index m p) (fn coords))

let fill_interior t ~base fn =
  (* remember the fill: it is exactly the static data a recovered rank
     re-derives after losing its memory *)
  t.fills <- (base, fn) :: List.remove_assoc base t.fills;
  List.iter (fun r -> fill_rank_interior t ~base r fn) (ranks t)

let fill_rank_betas t r beta =
  List.iter
    (fun axis ->
      let m = Grids.find t.grids (rank_name (Nd.beta_name axis) r) in
      Mesh.fill_with m (fun p ->
          let coords =
            Array.mapi
              (fun a l ->
                if a = axis then
                  float_of_int ((r.(a) * t.local_n) + l - 1) *. h t
                else coord t r a l)
              p
          in
          beta coords))
    (List.init t.dims Fun.id)

let set_beta t beta =
  t.beta_fn <- Some beta;
  List.iter (fun r -> fill_rank_betas t r beta) (ranks t);
  init_dinv t

let global_shape t =
  Array.init t.dims (fun a -> (t.local_n * t.rank_grid.(a)) + 2)

(* [fn m i gi] for every owned cell of every rank: its flat index [i] in
   the rank's mesh [m] and [gi] in [global], a global-shape mesh *)
let iter_owned t ~base ~global fn =
  if Mesh.shape global <> global_shape t then
    invalid_arg "Spmd: global mesh shape does not match the decomposition";
  let gs = Mesh.strides global in
  List.iter
    (fun r ->
      let m = Grids.find t.grids (rank_name base r) in
      let origin = t.local_n * Ivec.dot gs r in
      Domain.iter (rank_interior t) (fun p ->
          fn m (Mesh.flat_index m p) (origin + Ivec.dot gs p)))
    (ranks t)

let gather t ~base =
  let g = Mesh.create (global_shape t) in
  iter_owned t ~base ~global:g (fun m i gi ->
      Mesh.set_flat g gi (Mesh.get_flat m i));
  g

let scatter t ~base global =
  iter_owned t ~base ~global (fun m i gi ->
      Mesh.set_flat m i (Mesh.get_flat global gi))

(* ------------------------------------------------------- rank recovery *)

let dead_ranks t = Hashtbl.fold (fun _ r acc -> r :: acc) t.dead []

(* First guess for a lost rank's solution: per axis, linearly interpolate
   between the nearest owned planes of the two neighbours (which sit at
   this rank's local coordinates 0 and local_n+1), then average the axes.
   A physical boundary — or a neighbour that is itself still dead —
   contributes the Dirichlet face value 0. *)
let reconstruct_u t r =
  let n = t.local_n in
  let u = Grids.find t.grids (rank_name "u" r) in
  let sample axis delta p =
    let nb = Array.copy r in
    nb.(axis) <- r.(axis) + delta;
    if
      nb.(axis) < 0
      || nb.(axis) >= t.rank_grid.(axis)
      || is_dead t nb
    then 0.
    else begin
      let q = Array.copy p in
      q.(axis) <- (if delta < 0 then n else 1);
      Mesh.get (Grids.find t.grids (rank_name "u" nb)) q
    end
  in
  Domain.iter (rank_interior t) (fun p ->
      let acc = ref 0. in
      for axis = 0 to t.dims - 1 do
        let lo = sample axis (-1) p and hi = sample axis 1 p in
        let frac = float_of_int p.(axis) /. float_of_int (n + 1) in
        acc := !acc +. lo +. ((hi -. lo) *. frac)
      done;
      Mesh.set u p (!acc /. float_of_int t.dims))

let recover ?(sweeps = 4) t =
  let dead = dead_ranks t in
  let module Trace = Sf_trace.Trace in
  List.iter
    (fun r ->
      (* wipe the poison, then re-derive static data from the recorded
         fills and beta: f and the coefficients are pure functions of the
         rank's coordinates, so nothing about them was actually "lost" *)
      List.iter
        (fun base -> Mesh.fill (Grids.find t.grids (rank_name base r)) 0.)
        (mesh_bases t.dims);
      List.iter
        (fun axis ->
          Mesh.fill (Grids.find t.grids (rank_name (Nd.beta_name axis) r)) 1.)
        (List.init t.dims Fun.id);
      Option.iter (fill_rank_betas t r) t.beta_fn;
      List.iter
        (fun (base, fn) ->
          if base <> "u" then fill_rank_interior t ~base r fn)
        t.fills;
      (* the solution is genuinely lost: rebuild a first guess from the
         alive neighbours' halo-adjacent planes *)
      reconstruct_u t r;
      if Trace.on () then begin
        Atomic.incr recoveries;
        Trace.record_span
          ~args:[ ("rank", Trace.Str (rank_key r)) ]
          Trace.Phase
          ("recover:" ^ rank_key r)
          ~ts_us:(Trace.now_us ()) ~dur_us:0.
      end)
    dead;
  Hashtbl.reset t.dead;
  if dead <> [] then begin
    (* every rank is alive again: refresh dinv (the dead ranks' copies
       were poisoned) and smooth the reconstructed region back into the
       global solution — exchanges are full-width again, sweeps touch
       only the recovered ranks *)
    init_dinv t;
    let g = gsrb_group ~ranks:dead t ~label:"spmd_recover" in
    for _ = 1 to sweeps do
      run_group t g
    done
  end;
  List.length dead
