(* Supervised compilation: the Jit-aware glue over Sf_resilience.

   [compile] wraps a jitted kernel so each instance run goes through
   [Supervisor.run] with an ordered backend failover chain: a transient
   fault is retried on the primary instance; a persistent one compiles
   and binds the same group on the next backend (a cache hit after the
   first failover) and replays the run there — fallbacks cost nothing
   until an attempt fails.  After every successful run the
   guard scans the group's output grids, so silent NaN/Inf corruption is
   promoted to a failure the same machinery can handle.

   The supervised path only engages while faults are armed or a guard
   mode is active: a clean run costs two atomic loads and a branch over
   the bare kernel. *)

open Snowflake
module Fault = Sf_resilience.Fault
module Guard = Sf_resilience.Guard
module Supervisor = Sf_resilience.Supervisor

(* Ordered by how much of the machine each backend needs: parallel plans
   degrade to the strength-reduced serial executor, then to the reference
   interpreter — the backend that is also the fuzzing oracle. *)
let chain = function
  | Jit.Opencl -> [ Jit.Opencl; Jit.Openmp; Jit.Compiled; Jit.Interp ]
  | Jit.Openmp -> [ Jit.Openmp; Jit.Compiled; Jit.Interp ]
  | Jit.Compiled -> [ Jit.Compiled; Jit.Interp ]
  | Jit.Interp -> [ Jit.Interp ]
  | Jit.Custom c -> [ Jit.Custom c; Jit.Compiled; Jit.Interp ]

let compile ?policy ?(config = Config.default) backend ~shape group =
  let primary = Jit.compile ~config backend ~shape group in
  let backends = chain backend in
  let outputs = Group.outputs group and names = Group.grids group in
  let bind ?params grids =
    let run = primary.Kernel.bind ?params grids in
    (* fallbacks and scans see the meshes bound now, like [run] *)
    let grids =
      Sf_mesh.Grids.of_list
        (List.map (fun g -> (g, Sf_mesh.Grids.find grids g)) names)
    in
    fun () ->
      if not (Fault.armed () || Guard.active ()) then run ()
      else
        let attempts =
          List.map
            (fun b ->
              ( Jit.backend_name b,
                fun () ->
                  if b = backend then run ()
                  else
                    (Jit.compile ~config b ~shape group).Kernel.run ?params
                      grids;
                  Guard.scan_grids grids outputs ))
            backends
        in
        Supervisor.run ?policy ~name:group.Group.label attempts
  in
  Kernel.make ~name:primary.Kernel.name ~backend:primary.Kernel.backend
    ~description:
      (primary.Kernel.description
      ^ "; supervised: "
      ^ String.concat " -> " (List.map Jit.backend_name backends))
    bind
