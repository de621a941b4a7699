open Sf_util
open Snowflake

type backend = Interp | Compiled | Openmp | Opencl | Custom of string

exception
  Certification_failed of {
    backend : string;
    group : string;
    diagnostics : Sf_analysis.Diagnostics.t list;
  }

let () =
  Printexc.register_printer (function
    | Certification_failed { backend; group; diagnostics } ->
        Some
          (Printf.sprintf
             "Jit.Certification_failed: %s plan for group %s:\n%s" backend
             group
             (Sf_analysis.Diagnostics.render diagnostics))
    | _ -> None)

let backend_name = function
  | Interp -> "interp"
  | Compiled -> "compiled"
  | Openmp -> "openmp"
  | Opencl -> "opencl"
  | Custom name -> name

let builtin_names = [ "interp"; "compiled"; "openmp"; "opencl" ]

let registry :
    (string, Config.t -> shape:Ivec.t -> Group.t -> Kernel.t) Hashtbl.t =
  Hashtbl.create 8

(* Kernels may be compiled from worker domains (e.g. a task JIT-compiling a
   sub-kernel), so the registry, the compile cache and its counters must be
   race-free: one mutex around the tables, atomics for the counters. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let backend_of_string = function
  | "interp" -> Some Interp
  | "compiled" -> Some Compiled
  | "openmp" -> Some Openmp
  | "opencl" -> Some Opencl
  | name ->
      if locked (fun () -> Hashtbl.mem registry name) then Some (Custom name)
      else None

let all_backends = [ Interp; Compiled; Openmp; Opencl ]

let registered_backends () =
  locked (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) registry [])
  |> List.sort String.compare

type key = {
  backend : backend;
  shape : int list;
  group_hash : int;
  config : Config.t;
}

let cache : (key, Kernel.t) Hashtbl.t = Hashtbl.create 64
let hits = Atomic.make 0
let misses = Atomic.make 0

module Trace = Sf_trace.Trace
module Fault = Sf_resilience.Fault

(* The "kernel" fault site lives in the instrument wrapper, so every
   backend inherits it.  Raise/Transient abort the invocation before any
   wave runs; poison kinds corrupt the first output grid's center point
   *after* a successful run (poisoning before would be overwritten by the
   kernel itself) — exactly the silent-data-corruption shape the guard
   scans and checkpoint rollback exist to catch. *)
let apply_poison outputs grids v =
  match outputs with
  | [] -> ()
  | name :: _ -> (
      match Sf_mesh.Grids.find_opt grids name with
      | Some m ->
          let n = Sf_mesh.Mesh.size m in
          if n > 0 then Sf_mesh.Mesh.set_flat m (n / 2) v
      | None -> ())

(* Every compiled kernel is wrapped in a trace guard at compile time, so
   each invocation — from user code, [Mg], [Spmd] or the bench harness —
   becomes a [kernel] span attributed to its group and backend and
   annotated with the analytic cells/flops/bytes of one run (the executed
   plan's own cost).  The span arguments are computed once per cache
   entry; when tracing is off the wrapper costs one atomic load and a
   branch. *)
let instrument ~cost ~backend group (kernel : Kernel.t) =
  let span_args =
    [
      ("backend", Trace.Str backend);
      ("group", Trace.Str group.Group.label);
      ("stencils", Trace.Int (Group.length group));
    ]
    @ Costing.args cost
  in
  let fault_detail = backend ^ ":" ^ group.Group.label in
  let outputs =
    List.map (fun s -> s.Stencil.output) (Group.stencils group)
    |> List.sort_uniq String.compare
  in
  let run ?params grids =
    let poison =
      if Fault.armed () then Fault.fire ~site:"kernel" ~detail:fault_detail
      else None
    in
    (if Trace.on () then begin
       Trace.add Trace.Cells_updated cost.Costing.cells;
       Trace.span ~args:span_args Trace.Kernel group.Group.label (fun () ->
           kernel.Kernel.run ?params grids)
     end
     else kernel.Kernel.run ?params grids);
    match poison with
    | Some Fault.Nan_poison -> apply_poison outputs grids Float.nan
    | Some Fault.Inf_poison -> apply_poison outputs grids Float.infinity
    | _ -> ()
  in
  { kernel with Kernel.run }

let lower ?(config = Config.default) backend ~shape group =
  match backend with
  | Interp -> Serial_backend.lower ~backend:"interp" ~shape group
  | Compiled -> Serial_backend.lower ~backend:"compiled" ~shape group
  | Openmp -> Openmp_backend.lower config ~shape group
  | Opencl -> Opencl_backend.lower config ~shape group
  | Custom name ->
      invalid_arg
        (Printf.sprintf "Jit.lower: custom backend %S has no plan" name)

(* The structural cache identity.  Time-tiled entries ([reps > 1]) live
   in the same cache under a distinct pseudo-backend name, with
   [Config.time_tile] carrying [reps] into the key. *)
let key_of ~config ~reps backend ~shape group =
  let backend, config =
    if reps > 1 then
      ( Custom ("timetile:" ^ backend_name backend),
        { config with Config.time_tile = reps } )
    else (backend, config)
  in
  { backend; shape = Ivec.to_list shape; group_hash = Group.hash group; config }

(* The one cache probe: a hit returns the cached kernel; a miss builds
   outside the lock (lowering can be slow and must not stall concurrent
   lookups of unrelated kernels) and keeps whichever kernel a racing
   compile stored first. *)
let cached key build =
  match locked (fun () -> Hashtbl.find_opt cache key) with
  | Some kernel ->
      Atomic.incr hits;
      if Trace.on () then Trace.add Trace.Cache_hits 1;
      kernel
  | None ->
      Atomic.incr misses;
      if Trace.on () then Trace.add Trace.Cache_misses 1;
      let kernel = build () in
      locked (fun () ->
          match Hashtbl.find_opt cache key with
          | Some existing -> existing
          | None ->
              Hashtbl.replace cache key kernel;
              kernel)

(* Lower once; certify, cost and execute that same plan.  Certification
   (SF_VALIDATE=1 / Config.certify) runs once per cache entry — cache
   hits pay nothing.  A failed compile caches nothing, so a racy plan
   raises on every attempt. *)
let run_plan (config : Config.t) ~tier ~backend ?(extra = fun () -> [])
    (plan : Plan.t) =
  let group = plan.Plan.group in
  if config.Config.certify then begin
    let diagnostics =
      Trace.span Trace.Certify ("certify:" ^ group.Group.label) (fun () ->
          extra () @ Schedule_check.certify config plan)
    in
    if Sf_analysis.Diagnostics.has_errors diagnostics then
      raise
        (Certification_failed
           { backend; group = group.Group.label; diagnostics })
  end;
  instrument ~cost:plan.Plan.cost ~backend group
    (Plan.execute ~tier config plan)

let armed_spec = Atomic.make ""

let compile ?(config = Config.default) backend ~shape group =
  if config.Config.trace && not (Trace.on ()) then Trace.set_enabled true;
  (* mirror the trace-arming pattern: a spec in the config arms the global
     fault substrate.  Arming is keyed on the raw spec string so repeated
     compiles under the same config never re-arm (re-arming would reset
     the clauses' occurrence counters mid-campaign); [None] leaves any
     SF_FAULTS arming in force. *)
  (match config.Config.faults with
  | Some spec when Atomic.get armed_spec <> spec ->
      Atomic.set armed_spec spec;
      Fault.arm_exn spec
  | _ -> ());
  cached (key_of ~config ~reps:1 backend ~shape group) (fun () ->
      Trace.span
        ~args:
          [
            ("backend", Trace.Str (backend_name backend));
            ("group", Trace.Str group.Group.label);
          ]
        Trace.Compile
        ("compile:" ^ group.Group.label)
        (fun () ->
          let group = Passes.optimize config ~shape group in
          match backend with
          | Custom name -> (
              match locked (fun () -> Hashtbl.find_opt registry name) with
              | Some compiler ->
                  (* a custom plan is opaque to the certifier *)
                  instrument
                    ~cost:(Costing.of_group ~shape group)
                    ~backend:name group
                    (compiler config ~shape group)
              | None ->
                  invalid_arg
                    (Printf.sprintf "Jit.compile: unknown custom backend %S"
                       name))
          | _ ->
              let tier =
                if backend = Interp then Plan.Interp else Plan.Compiled
              in
              run_plan config ~tier
                ~backend:(backend_name backend)
                (lower ~config backend ~shape group)))

(* --------------------------------------------------- temporal blocking

   [compile] is always ONE application of the group; [compile_time_tiled]
   returns a kernel whose single invocation performs [reps] applications —
   skew-blocked into ~one pass of memory traffic when [Timetile.plan]
   accepts the group, or a plain kernel wrapped in a reps-loop otherwise,
   so the semantics are uniform either way (the differential fuzzer
   depends on that). *)

let compile_time_tiled ?(config = Config.default) ~reps backend ~shape group =
  if reps < 1 then
    invalid_arg "Jit.compile_time_tiled: reps must be at least 1";
  if reps = 1 then compile ~config backend ~shape group
  else begin
    let key = key_of ~config ~reps backend ~shape group in
    let config = key.config in
    cached key (fun () ->
        Trace.span
          ~args:
            [
              ("backend", Trace.Str "timetile");
              ("group", Trace.Str group.Group.label);
              ("reps", Trace.Int reps);
            ]
          Trace.Compile
          ("compile:" ^ group.Group.label)
          (fun () ->
            let group = Passes.optimize config ~shape group in
            match Timetile.plan config ~shape ~reps group with
            | Some tp ->
                run_plan config ~tier:Plan.Compiled ~backend:"timetile"
                  ~extra:(fun () ->
                    Schedule_check.certify_timetile_plan config ~shape tp)
                  (Timetile.lower ~shape tp)
            | None ->
                (* the plain fallback's inner kernel is instrumented by
                   [compile] itself: one span per application *)
                let inner = compile ~config backend ~shape group in
                let run ?params grids =
                  for _ = 1 to reps do
                    inner.Kernel.run ?params grids
                  done
                in
                {
                  inner with
                  Kernel.run;
                  Kernel.description =
                    Printf.sprintf "%d rep(s) of [%s]" reps
                      inner.Kernel.description;
                }))
  end

let compile_stencil ?config backend ~shape stencil =
  compile ?config backend ~shape
    (Group.make ~label:stencil.Stencil.label [ stencil ])

let register_backend ~name compiler =
  if List.mem name builtin_names then
    invalid_arg
      (Printf.sprintf "Jit.register_backend: %S is a built-in backend" name);
  locked (fun () ->
      if Hashtbl.mem registry name then Hashtbl.reset cache;
      Hashtbl.replace registry name compiler)

(* Exported so a serving layer can coalesce concurrent compiles of the
   same kernel *before* they race in [compile] (two domains racing on one
   key both pay the lowering; a server funnels same-key requests through
   one compile instead).  Built from the very key [compile] /
   [compile_time_tiled] probe. *)
let cache_key_hex ?(config = Config.default) ?(reps = 1) backend ~shape group
    =
  let key = key_of ~config ~reps backend ~shape group in
  Printf.sprintf "%x-%x" key.group_hash
    (Hashtbl.hash (backend_name key.backend, key.shape, key.config))

let cache_stats () = (Atomic.get hits, Atomic.get misses)

let clear_cache () =
  locked (fun () -> Hashtbl.reset cache);
  Atomic.set hits 0;
  Atomic.set misses 0
