open Sf_util
open Sf_mesh
open Snowflake
open Sf_analysis
module Config = Sf_backends.Config
module Jit = Sf_backends.Jit
module Pool = Sf_backends.Pool
module Trace = Sf_trace.Trace

(* counted only while tracing *)
let sends = Sf_trace.Metrics.counter "pipeline.sends"
let stalls = Sf_trace.Metrics.counter "pipeline.stalls"

(* One bounded FIFO of halo planes.  [head]/[tail] are monotone message
   counters (not wrapped): slot of message m is [m mod depth].  Within a
   scheduler batch at most one task sends on a ring and at most one
   receives, they touch distinct slots whenever 0 < tail - head < depth,
   and the batch join publishes both counters before the next readiness
   scan — so plain mutable fields suffice. *)
type ring = {
  chan : Pipeline_check.channel;
  mutable slots : float array array;
  src_mesh : Mesh.t;
  dst_mesh : Mesh.t;
  src_index : int array;  (* producer-grid flat indices, capture order *)
  dst_index : int array;  (* consumer-grid ghost flat indices, same order *)
  mutable head : int;  (* messages received *)
  mutable tail : int;  (* messages sent *)
}

type node = { run : Sf_backends.Kernel.instance option; ins : int list; outs : int list }

type t = {
  spmd : Spmd.t;
  label : string;
  cert : Pipeline_check.certificate;
  rings : ring array;
  nodes : node array array;  (* nodes.(rank_index).(stage) *)
  pool : Pool.t;
}

let certify ?stream_axis ?depth_override spmd group =
  Pipeline_check.analyze ?stream_axis ?depth_override ~shape:spmd.Spmd.shape
    group

let refuse label diagnostics =
  raise
    (Jit.Certification_failed { backend = "pipeline"; group = label; diagnostics })

(* Flat index of [p] (shifted by [offset]) in [mesh], bounds-checked once
   here so [send]/[recv] copy by index *)
let flat_index mesh offset p =
  let p = Array.map2 ( + ) p offset in
  if not (Mesh.in_bounds mesh p) then
    invalid_arg
      (Printf.sprintf "Pipeline.create: channel cell %s out of bounds"
         (Ivec.to_string p));
  Mesh.flat_index mesh p

let flat_indices mesh offset ghost =
  let acc = ref [] in
  List.iter
    (fun lat -> Domain.iter lat (fun p -> acc := flat_index mesh offset p :: !acc))
    ghost;
  Array.of_list (List.rev !acc)

let create ?stream_axis ?depth_override ?(config = Config.default) spmd group =
  let label = group.Group.label in
  let cert, diags = certify ?stream_axis ?depth_override spmd group in
  let cert =
    match cert with
    | Some c -> c
    | None -> refuse label (List.filter Diagnostics.is_error diags)
  in
  let grids = spmd.Spmd.grids in
  let rings =
    Array.of_list
      (List.map
         (fun (c : Pipeline_check.channel) ->
           let src_mesh = Grids.find grids c.Pipeline_check.src_grid in
           let dst_mesh = Grids.find grids c.Pipeline_check.dst_grid in
           let ghost = c.Pipeline_check.ghost in
           let dst_index =
             flat_indices dst_mesh (Ivec.zero (Mesh.dims dst_mesh)) ghost
           in
           {
             chan = c;
             slots =
               Array.init c.Pipeline_check.depth (fun _ ->
                   Array.make (Array.length dst_index) 0.);
             src_mesh;
             dst_mesh;
             src_index = flat_indices src_mesh c.Pipeline_check.offset ghost;
             dst_index;
             head = 0;
             tail = 0;
           })
         cert.Pipeline_check.channels)
  in
  let stencils = Array.of_list (Group.stencils group) in
  let consumers =
    List.map (fun (c : Pipeline_check.channel) -> c.Pipeline_check.consumer)
      cert.Pipeline_check.channels
  in
  let rank_index r =
    let rec go i = function
      | [] -> invalid_arg "Pipeline.create: unknown rank"
      | r' :: rest -> if r' = r then i else go (i + 1) rest
    in
    go 0 cert.Pipeline_check.ranks
  in
  (* inner kernels run serially: parallelism comes from scheduling many
     (rank, stage) nodes concurrently across the pool *)
  let kconfig = Config.with_workers 1 config in
  let params = Spmd.params spmd in
  let nranks = List.length cert.Pipeline_check.ranks in
  let nodes =
    Array.init nranks (fun ri ->
        Array.init cert.Pipeline_check.stages (fun st ->
            let mine =
              List.filteri
                (fun i _ ->
                  cert.Pipeline_check.stage_of.(i) = st
                  && cert.Pipeline_check.rank_of.(i) <> []
                  && rank_index cert.Pipeline_check.rank_of.(i) = ri
                  && not (List.mem i consumers))
                (Array.to_list stencils)
            in
            let run =
              match mine with
              | [] -> None
              | _ ->
                  let g =
                    Group.make
                      ~label:(Printf.sprintf "%s/r%d/s%d" label ri st)
                      mine
                  in
                  Some
                    ((Jit.compile ~config:kconfig Jit.Openmp
                        ~shape:spmd.Spmd.shape g)
                       .Sf_backends.Kernel.bind ~params grids)
            in
            let ins = ref [] and outs = ref [] in
            Array.iteri
              (fun k ring ->
                let c = ring.chan in
                if
                  rank_index c.Pipeline_check.dst = ri
                  && c.Pipeline_check.dst_stage = st
                then ins := k :: !ins;
                if
                  rank_index c.Pipeline_check.src = ri
                  && c.Pipeline_check.src_stage = st
                then outs := k :: !outs)
              rings;
            { run; ins = List.rev !ins; outs = List.rev !outs }))
  in
  {
    spmd;
    label;
    cert;
    rings;
    nodes;
    pool = Pool.create ~workers:config.Config.workers;
  }

let certificate t = t.cert

let inject_undersize t =
  if Array.length t.rings = 0 then
    invalid_arg "Pipeline.inject_undersize: plan has no channels";
  let r = t.rings.(0) in
  r.slots <- Array.sub r.slots 0 (Array.length r.slots - 1)

let send ring =
  let slot = ring.slots.(ring.tail mod Array.length ring.slots) in
  Array.iteri (fun k i -> slot.(k) <- Mesh.get_flat ring.src_mesh i) ring.src_index;
  ring.tail <- ring.tail + 1;
  if Trace.on () then Atomic.incr sends

let recv ring =
  let slot = ring.slots.(ring.head mod Array.length ring.slots) in
  Array.iteri (fun k i -> Mesh.set_flat ring.dst_mesh i slot.(k)) ring.dst_index;
  ring.head <- ring.head + 1

let run ?(sweeps = 1) t =
  (match
     Pipeline_check.verify_depths t.cert
       ~depths:(Array.to_list (Array.map (fun r -> Array.length r.slots) t.rings))
   with
  | [] -> ()
  | diags -> refuse t.label diags);
  let stages = t.cert.Pipeline_check.stages in
  let nranks = Array.length t.nodes in
  let total = sweeps * stages in
  (* per-rank program counter: pc = wave * stages + stage *)
  let pc = Array.make nranks 0 in
  let exec () =
    (* prologue: delay-d channels carry the pre-sweep planes of their
       first d messages — exactly what the bulk-synchronous exchange of
       wave 0 reads *)
    Array.iter
      (fun r ->
        for _ = 1 to r.chan.Pipeline_check.wave_delay do
          send r
        done)
      t.rings;
    let finished = ref 0 in
    while !finished < nranks do
      let ready = ref [] and stalled = ref false in
      for ri = 0 to nranks - 1 do
        if pc.(ri) < total then begin
          let w = pc.(ri) / stages and st = pc.(ri) mod stages in
          let n = t.nodes.(ri).(st) in
          let ok =
            List.for_all (fun k -> t.rings.(k).tail > t.rings.(k).head) n.ins
            && List.for_all
                 (fun k ->
                   let r = t.rings.(k) in
                   r.tail - r.head < Array.length r.slots)
                 n.outs
          in
          if ok then ready := (ri, w, st, n) :: !ready else stalled := true
        end
      done;
      (match !ready with
      | [] ->
          (* unreachable for a certified plan: the deadlock proof covers
             exactly this scheduler's blocking discipline *)
          failwith ("Pipeline.run: stalled pipeline in " ^ t.label)
      | batch ->
          if !stalled && Trace.on () then Atomic.incr stalls;
          let tasks =
            List.map
              (fun (_ri, _w, _st, n) () ->
                List.iter (fun k -> recv t.rings.(k)) n.ins;
                Option.iter (fun run -> run ()) n.run;
                List.iter (fun k -> send t.rings.(k)) n.outs)
              (List.rev batch)
          in
          Pool.run_tasks t.pool (Array.of_list tasks);
          List.iter
            (fun (ri, _, _, _) ->
              pc.(ri) <- pc.(ri) + 1;
              if pc.(ri) = total then incr finished)
            batch)
    done;
    (* drop the planes still in flight (trailing sends of the last wave
       have no consumer); reset so the next [run] re-primes cleanly *)
    Array.iter
      (fun r ->
        r.head <- 0;
        r.tail <- 0)
      t.rings
  in
  if Trace.on () then
    Trace.span
      ~args:
        [
          ("group", Trace.Str t.label);
          ("ranks", Trace.Int nranks);
          ("sweeps", Trace.Int sweeps);
        ]
      Trace.Phase ("pipeline:" ^ t.label) exec
  else exec ()
