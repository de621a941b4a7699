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
  reps : int;  (* applications per invocation *)
}

(* [key] picks the bucket; a hit also needs the exact group, since
   [Group.hash] folds constants through [Hashtbl.hash] and distinct
   programs can share it.  Labels stay outside identity.  Callers mostly
   re-probe with the very group value they compiled (a solver's levels,
   a cached parse), which skips the walk. *)
module Cache = Hashtbl.Make (struct
  type t = key * Group.t

  let hash (key, _) = Hashtbl.hash key

  let equal (k1, g1) (k2, g2) =
    compare k1 k2 = 0 && (g1 == g2 || Group.equal g1 g2)
end)

let cache : Kernel.t Cache.t = Cache.create 64
let hits = Sf_trace.Metrics.counter "jit.hits"
let misses = Sf_trace.Metrics.counter "jit.misses"
let cells = Sf_trace.Metrics.counter "jit.cells"

module Trace = Sf_trace.Trace
module Fault = Sf_resilience.Fault

(* The "kernel" fault site lives in the instrument wrapper's instances,
   so every backend inherits it.  Raise/Transient abort the run before
   any wave runs; poison kinds corrupt the first output grid's
   center point *after* a successful run (poisoning before would be
   overwritten by the kernel itself) — exactly the silent-data-corruption
   shape the guard scans and checkpoint rollback exist to catch. *)
let apply_poison target v =
  match target with
  | Some m ->
      let n = Sf_mesh.Mesh.size m in
      if n > 0 then Sf_mesh.Mesh.set_flat m (n / 2) v
  | None -> ()

(* Every compiled kernel is wrapped in a trace guard at compile time, so
   each instance run — from user code, [Mg], [Spmd] or the bench harness —
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
  let first_output = List.nth_opt (Group.outputs group) 0 in
  let bind ?params grids =
    let run = kernel.Kernel.bind ?params grids in
    let target = Option.bind first_output (Sf_mesh.Grids.find_opt grids) in
    fun () ->
      let poison =
        if Fault.armed () then Fault.fire ~site:"kernel" ~detail:fault_detail
        else None
      in
      (if Trace.on () then begin
         ignore (Atomic.fetch_and_add cells cost.Costing.cells);
         Trace.span ~args:span_args Trace.Kernel group.Group.label run
       end
       else run ());
      match poison with
      | Some Fault.Nan_poison -> apply_poison target Float.nan
      | Some Fault.Inf_poison -> apply_poison target Float.infinity
      | _ -> ()
  in
  Kernel.make ~name:kernel.Kernel.name ~backend:kernel.Kernel.backend
    ~description:kernel.Kernel.description bind

let lower ?(config = Config.default) backend ~shape group =
  let group = Passes.optimize config ~shape group in
  match backend with
  | Interp -> Serial_backend.lower ~backend:"interp" ~shape group
  | Compiled -> Serial_backend.lower ~backend:"compiled" ~shape group
  | Openmp -> Openmp_backend.lower config ~shape group
  | Opencl -> Opencl_backend.lower config ~shape group
  | Custom name ->
      invalid_arg
        (Printf.sprintf "Jit.lower: custom backend %S has no plan" name)

let key_of ~config ~reps backend ~shape group =
  {
    backend;
    shape = Ivec.to_list shape;
    group_hash = Group.hash group;
    config;
    reps;
  }

(* The one cache probe: a hit returns the cached kernel; a miss builds
   outside the lock (lowering can be slow and must not stall concurrent
   lookups of unrelated kernels) and keeps whichever kernel a racing
   compile stored first. *)
let cached key build =
  match locked (fun () -> Cache.find_opt cache key) with
  | Some kernel ->
      Atomic.incr hits;
      kernel
  | None ->
      Atomic.incr misses;
      let kernel = build () in
      locked (fun () ->
          match Cache.find_opt cache key with
          | Some existing -> existing
          | None ->
              Cache.replace cache key kernel;
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

(* One application through the backend's own lowering. *)
let build config backend ~shape group =
  match backend with
  | Custom name -> (
      match locked (fun () -> Hashtbl.find_opt registry name) with
      | Some compiler ->
          (* a custom plan is opaque to the certifier *)
          let group = Passes.optimize config ~shape group in
          instrument
            ~cost:(Costing.of_group ~shape group)
            ~backend:name group
            (compiler config ~shape group)
      | None ->
          invalid_arg
            (Printf.sprintf "Jit.compile: unknown custom backend %S" name))
  | _ ->
      let tier = if backend = Interp then Plan.Interp else Plan.Compiled in
      run_plan config ~tier ~backend:(backend_name backend)
        (lower ~config backend ~shape group)

(* The one compile entry point: a function of its cache key alone, so a
   compile touches no process state beyond the cache and its counters. *)
let rec compile ?(config = Config.default) ?(reps = 1) backend ~shape group =
  if reps < 1 then invalid_arg "Jit.compile: reps must be at least 1";
  cached (key_of ~config ~reps backend ~shape group, group) (fun () ->
      Trace.span
        ~args:
          ([
             ( "backend",
               Trace.Str (if reps = 1 then backend_name backend else "timetile")
             );
             ("group", Trace.Str group.Group.label);
           ]
          @ if reps = 1 then [] else [ ("reps", Trace.Int reps) ])
        Trace.Compile
        ("compile:" ^ group.Group.label)
        (fun () ->
          if reps = 1 then build config backend ~shape group
          else time_tiled config ~reps backend ~shape group))

(* [reps > 1] applications per invocation: skew-blocked into ~one pass of
   memory traffic when [Timetile.plan] accepts the group, or the plain
   kernel wrapped in a reps-loop otherwise, so the semantics are uniform
   either way (the differential fuzzer depends on that). *)
and time_tiled config ~reps backend ~shape group =
  let group = Passes.optimize config ~shape group in
  match Timetile.plan config ~shape ~reps group with
  | Some tp ->
      run_plan config ~tier:Plan.Compiled ~backend:"timetile"
        ~extra:(fun () -> Schedule_check.certify_timetile_plan config ~shape tp)
        (Timetile.lower ~shape tp)
  | None ->
      (* the plain fallback's inner kernel is instrumented by [compile]
         itself: one span per application *)
      let inner = compile ~config backend ~shape group in
      Kernel.make ~name:inner.Kernel.name ~backend:inner.Kernel.backend
        ~description:
          (Printf.sprintf "%d rep(s) of [%s]" reps inner.Kernel.description)
        (fun ?params grids ->
          let run = inner.Kernel.bind ?params grids in
          fun () ->
            for _ = 1 to reps do
              run ()
            done)

let register_backend ~name compiler =
  if List.mem name builtin_names then
    invalid_arg
      (Printf.sprintf "Jit.register_backend: %S is a built-in backend" name);
  locked (fun () ->
      if Hashtbl.mem registry name then Cache.reset cache;
      Hashtbl.replace registry name compiler)

(* Exported so a serving layer can coalesce concurrent compiles of the
   same kernel *before* they race in [compile] (two domains racing on one
   key both pay the lowering; a server funnels same-key requests through
   one compile instead).  Built from the very key [compile] probes, and
   digested whole: [Hashtbl.hash] reads only the first ten words, which
   misses every axis after the first and most [Config] fields. *)
let cache_key_hex ?(config = Config.default) ?(reps = 1) backend ~shape group
    =
  let key = key_of ~config ~reps backend ~shape group in
  Printf.sprintf "%x-%s" key.group_hash
    (Digest.to_hex
       (Digest.string
          (Marshal.to_string
             (backend_name key.backend, key.reps, key.shape, key.config)
             [ Marshal.No_sharing ])))

let cache_stats () = (Atomic.get hits, Atomic.get misses)

let clear_cache () =
  locked (fun () -> Cache.reset cache);
  Atomic.set hits 0;
  Atomic.set misses 0
