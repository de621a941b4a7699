open Sf_util
open Sf_mesh
open Snowflake
open Sf_backends

type target = {
  backend : Jit.backend;
  config : Config.t;
  tname : string;
  apps : int;
  native : bool;
}

let default_targets ~dims =
  let w n c = Config.with_workers n c in
  let tile = Some (List.init dims (fun _ -> 3)) in
  let t ?(native = false) backend config tname =
    { backend; config; tname; apps = 1; native }
  in
  [
    t Jit.Compiled Config.default "compiled";
    t Jit.Openmp (w 1 Config.default) "openmp/w1";
    t Jit.Openmp (w 4 Config.default) "openmp/w4";
    t Jit.Openmp { (w 2 Config.default) with Config.tile } "openmp/w2/tile";
    t Jit.Openmp
      { (w 4 Config.default) with Config.multicolor = true }
      "openmp/w4/multicolor";
    t Jit.Opencl (w 2 Config.default) "opencl/w2";
    t Jit.Opencl
      { (w 2 Config.default) with Config.tall_skinny = (2, 3) }
      "opencl/w2/ts";
    (* fused plans join the matrix: same one-application semantics, the
       backend is free to fuse cofusible stencils into single sweeps *)
    t Jit.Openmp
      { (w 4 Config.default) with Config.fusion = true }
      "openmp/w4/fused";
    t Jit.Opencl
      { (w 2 Config.default) with Config.fusion = true }
      "opencl/w2/fused";
    (* temporal blocking: three applications as one (possibly skewed
       time-tiled) kernel, vs three interp applications as oracle *)
    {
      backend = Jit.Openmp;
      config = w 4 Config.default;
      tname = "openmp/w4/ttile3";
      apps = 3;
      native = false;
    };
    (* the native tier, forced on for every structure: besides the interp
       tolerance it must match the closure tier bit for bit *)
    t ~native:true Jit.Compiled Config.default "native";
    t ~native:true Jit.Openmp (w 4 Config.default) "native/w4";
  ]

let family t = if t.native then "native" else Jit.backend_name t.backend

let targets_for ~only ~dims =
  let all = default_targets ~dims in
  match only with
  | None -> all
  | Some names ->
      List.filter (fun t -> List.mem (family t) names) all

type divergence = {
  target : string;
  grid : string;
  point : int list;
  expected : float;
  got : float;
  oracle : string;
  crashed : string option;
}

let divergence_to_string d =
  match d.crashed with
  | Some err -> Printf.sprintf "%s crashed: %s" d.target err
  | None ->
      Printf.sprintf
        "%s diverges from %s on grid %s at (%s): %.17g vs %.17g (%d ulps)"
        d.target d.oracle d.grid
        (String.concat ", " (List.map string_of_int d.point))
        d.expected d.got
        (Fcmp.ulp_diff d.expected d.got)

let run_target spec target =
  let grids = Gen.build_grids spec in
  let kernel =
    match target.backend with
    | _ when target.apps <= 1 ->
        Jit.compile ~config:target.config target.backend ~shape:spec.shape
          spec.group
    | Jit.Custom _ ->
        (* an injected multi-application backend builds its own
           [apps]-application kernel — don't wrap it again *)
        Jit.compile ~config:target.config target.backend ~shape:spec.shape
          spec.group
    | _ ->
        Jit.compile_time_tiled ~config:target.config ~reps:target.apps
          target.backend ~shape:spec.shape spec.group
  in
  let run () = kernel.Kernel.run ~params:spec.params grids in
  if target.native then Native.with_mode Native.Force run else run ();
  grids

(* The closure tier's result: what a native target must equal bitwise. *)
let run_closure spec =
  let grids = Gen.build_grids spec in
  let kernel = Jit.compile Jit.Compiled ~shape:spec.shape spec.group in
  Native.with_mode Native.Off (fun () -> kernel.Kernel.run ~params:spec.params grids);
  grids

let run_reference ?(apps = 1) spec =
  let grids = Gen.build_grids spec in
  let kernel = Jit.compile Jit.Interp ~shape:spec.shape spec.group in
  for _ = 1 to apps do
    kernel.Kernel.run ~params:spec.params grids
  done;
  grids

(* The first cell, grid by grid, where [first] finds [got] disagreeing
   with [reference]. *)
let compare_with ~first ~oracle ~target reference got =
  let rec go = function
    | [] -> Ok ()
    | name :: rest -> (
        match first (Grids.find reference name) (Grids.find got name) with
        | None -> go rest
        | Some (point, expected, got) ->
            Error
              {
                target;
                grid = name;
                point = Array.to_list point;
                expected;
                got;
                oracle;
                crashed = None;
              })
  in
  go (Grids.names reference)

let compare_grids ~ulps ~atol =
  compare_with ~first:(Mesh.first_mismatch ~ulps ~atol) ~oracle:"interp"

(* Bit for bit: tells -0. from 0. and NaN payloads apart, unlike a
   0-ULP comparison. *)
let first_bit_difference a b =
  let da = Mesh.data a and db = Mesh.data b in
  let bits d i = Int64.bits_of_float (Float.Array.get d i) in
  let rec find i =
    if i = Float.Array.length da then None
    else if Int64.equal (bits da i) (bits db i) then find (i + 1)
    else Some i
  in
  Option.map
    (fun i ->
      let rem = ref i in
      let point =
        Array.map
          (fun st ->
            let x = !rem / st in
            rem := !rem mod st;
            x)
          (Mesh.strides a)
      in
      (point, Float.Array.get da i, Float.Array.get db i))
    (find 0)

let compare_bits =
  compare_with ~first:first_bit_difference ~oracle:"the closure tier (bitwise)"

let check ?(ulps = 512) ?(atol = 1e-11) ~targets spec =
  (* one oracle per application count: a time-tiled target doing k
     applications compares against k interp applications *)
  let references = Hashtbl.create 4 in
  let reference_for apps =
    match Hashtbl.find_opt references apps with
    | Some g -> g
    | None ->
        let g = run_reference ~apps spec in
        Hashtbl.add references apps g;
        g
  in
  let closure = lazy (run_closure spec) in
  let rec go = function
    | [] -> Ok ()
    | t :: rest -> (
        (* a crashing target is a finding too — an exception must not
           abort the campaign, it must become a divergence of its own *)
        match run_target spec t with
        | exception e ->
            Error
              {
                target = t.tname;
                grid = "";
                point = [];
                expected = Float.nan;
                got = Float.nan;
                oracle = "interp";
                crashed = Some (Printexc.to_string e);
              }
        | got -> (
            let vs_interp () =
              compare_grids ~ulps ~atol ~target:t.tname
                (reference_for (max 1 t.apps))
                got
            in
            let vs_closure () =
              if t.native then compare_bits ~target:t.tname (Lazy.force closure) got
              else Ok ()
            in
            match Result.bind (vs_interp ()) vs_closure with
            | Ok () -> go rest
            | Error d -> Error d))
  in
  go targets

(* ------------------------------------------------------ fault injection *)

type bug =
  | Drop_last_stencil
  | Perturb_first_cell
  | Kernel_raise
  | Nan_poison_cell
  | Mis_skew_tile

let buggy_name = "sffuzz-buggy"

(* the honest sequential executor the injected bugs wrap *)
let compiled config ~shape group =
  Plan.execute ~tier:Plan.Compiled config
    (Serial_backend.lower ~backend:"compiled" ~shape group)

let injected_target bug =
  Jit.register_backend ~name:buggy_name (fun config ~shape group ->
      match bug with
      | Drop_last_stencil ->
          let ss = Group.stencils group in
          let n = List.length ss in
          let group' =
            if n > 1 then
              Group.make ~label:group.Group.label
                (List.filteri (fun i _ -> i < n - 1) ss)
            else group
          in
          compiled config ~shape group'
      | Perturb_first_cell ->
          let k = compiled config ~shape group in
          let out = (List.hd (Group.stencils group)).Stencil.output in
          Kernel.make ~name:k.Kernel.name ~backend:buggy_name
            ~description:"compiled + one perturbed cell"
            (fun ?params grids ->
              k.Kernel.run ?params grids;
              let m = Grids.find grids out in
              Mesh.set_flat m 0 (Mesh.get_flat m 0 +. 1e-3))
      | Kernel_raise ->
          let k = compiled config ~shape group in
          Kernel.make ~name:k.Kernel.name ~backend:buggy_name
            ~description:"compiled, then raises"
            (fun ?params grids ->
              k.Kernel.run ?params grids;
              raise
                (Sf_resilience.Fault.Injected
                   {
                     site = "kernel";
                     kind = Sf_resilience.Fault.Raise;
                     detail = buggy_name ^ ":" ^ group.Group.label;
                   }))
      | Nan_poison_cell ->
          let k = compiled config ~shape group in
          let out = (List.hd (Group.stencils group)).Stencil.output in
          Kernel.make ~name:k.Kernel.name ~backend:buggy_name
            ~description:"compiled + one NaN-poisoned cell"
            (fun ?params grids ->
              k.Kernel.run ?params grids;
              Mesh.set_flat (Grids.find grids out) 0 Float.nan)
      | Mis_skew_tile -> (
          (* a two-application temporal block whose skew is forced to 0:
             whenever the group actually carries an axis-0 dependence
             (required skew >= 1) and the slab is narrower than the axis,
             sub-step 2 reads stale neighbours across slab seams — exactly
             the bug [Schedule_check.certify_timetile_plan] flags as SF024,
             here smuggled past the certifier for the oracle to catch *)
          match
            if Timetile.required_skew group > 0 then
              Timetile.plan ~skew:0 ~block:2 config ~shape ~reps:2 group
            else None
          with
          | Some p ->
              Plan.execute ~tier:Plan.Compiled config (Timetile.lower ~shape p)
          | None ->
              (* not susceptible (no axis-0 dependence, or untileable):
                 degrade to an honest two-application loop so the target
                 stays divergence-free *)
              let k = compiled config ~shape group in
              Kernel.make ~name:k.Kernel.name ~backend:buggy_name
                ~description:"two plain applications"
                (fun ?params grids ->
                  k.Kernel.run ?params grids;
                  k.Kernel.run ?params grids)));
  {
    backend = Jit.Custom buggy_name;
    config = Config.default;
    tname = buggy_name;
    apps = (match bug with Mis_skew_tile -> 2 | _ -> 1);
    native = false;
  }
