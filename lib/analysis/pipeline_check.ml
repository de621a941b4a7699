open Sf_util
open Snowflake

type channel = {
  base : string;
  src : int list;
  dst : int list;
  axis : int;
  src_grid : string;
  dst_grid : string;
  src_stage : int;
  dst_stage : int;
  wave_delay : int;
  consumer : int;
  producer : int;
  ghost : Domain.resolved list;
  offset : Ivec.t;
  slope : int * int;
  depth : int;
  plane_points : int;
}

type certificate = {
  group_label : string;
  stream_axis : int;
  stages : int;
  ranks : int list list;
  stage_of : int array;
  rank_of : int list array;
  channels : channel list;
  bytes : int;
}

(* ------------------------------------------------------- rank parsing *)

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let rank_of_grid name =
  match String.rindex_opt name '@' with
  | None -> None
  | Some i ->
      let base = String.sub name 0 i in
      let suffix = String.sub name (i + 1) (String.length name - i - 1) in
      let tokens = String.split_on_char '_' suffix in
      if base <> "" && tokens <> [] && List.for_all is_digits tokens then
        Some (base, List.map int_of_string tokens)
      else None

let rank_to_string r = String.concat "_" (List.map string_of_int r)

(* ------------------------------------------------------- small helpers *)

let loc_of group index (s : Stencil.t) =
  Srcloc.stencil ~group:group.Group.label ~index s.Stencil.label

let sf032 group index s msg =
  Diagnostics.make ~code:"SF032" ~severity:Diagnostics.Error
    ~loc:(loc_of group index s)
    ~hint:
      "only neighbour-to-neighbour unit-scale halo copy stencils can become \
       channels; run this group bulk-synchronously (Spmd.run_group)"
    msg

(* Every cross-rank transfer the executor can stream must be a pure halo
   copy: one read, nothing else in the expression, identity write. *)
let is_pure_copy (s : Stencil.t) =
  Affine.is_identity s.Stencil.out_map
  &&
  match s.Stencil.expr with Expr.Read _ -> true | _ -> false

(* ----------------------------------------------------- DAG construction *)

type edge = {
  e_base : string;
  e_src_rank : int list;
  e_axis : int;
  e_src_grid : string;
  e_consumer : int;
  e_producer : int;
  e_delay : int;
  e_offset : Ivec.t;
  e_slope : int * int;
}

(* [SF_PIPE_BUDGET] (bytes, positive) from the environment, else 64 MiB *)
let default_budget =
  match
    Option.bind (Sys.getenv_opt "SF_PIPE_BUDGET") (fun s ->
        int_of_string_opt (String.trim s))
  with
  | Some v when v > 0 -> v
  | _ -> 1 lsl 26

let analyze ?(stream_axis = 0) ?depth_override ?(budget_bytes = default_budget)
    ~shape group =
  let stencils = Array.of_list (Group.stencils group) in
  let n = Array.length stencils in
  let out_rank =
    Array.map (fun (s : Stencil.t) -> rank_of_grid s.Stencil.output) stencils
  in
  if Array.for_all Option.is_none out_rank then (None, [])
  else begin
    let diags = ref [] in
    let emit d = diags := d :: !diags in
    let waves = Schedule.greedy_waves ~shape group in
    let stages = List.length waves in
    let stage_of = Array.make n 0 in
    List.iteri (fun w wave -> List.iter (fun i -> stage_of.(i) <- w) wave)
      waves;
    let rank_of = Array.make n [] in
    let fatal = ref false in
    Array.iteri
      (fun i (s : Stencil.t) ->
        match out_rank.(i) with
        | Some (_, r) -> rank_of.(i) <- r
        | None ->
            fatal := true;
            emit
              (sf032 group i s
                 (Printf.sprintf
                    "stencil writes unqualified grid '%s' in a rank-qualified \
                     group: no home rank to pipeline it on"
                    s.Stencil.output)))
      stencils;
    let ranks =
      Array.to_list rank_of |> List.sort_uniq compare
      |> List.filter (fun r -> r <> [])
    in
    (* ----------------------------------------- cross-rank edge discovery *)
    let resolved_read (s : Stencil.t) m =
      List.map (Footprint.affine_image m)
        (Domain.resolve ~shape s.Stencil.domain)
    in
    let writes_cache = Hashtbl.create 16 in
    let writes_of j =
      match Hashtbl.find_opt writes_cache j with
      | Some w -> w
      | None ->
          let w = snd (Footprint.write_footprint ~shape stencils.(j)) in
          Hashtbl.add writes_cache j w;
          w
    in
    let edges = ref [] in
    Array.iteri
      (fun i (s : Stencil.t) ->
        let home = rank_of.(i) in
        if home <> [] then begin
          let foreign =
            List.filter_map
              (fun (g, m) ->
                match rank_of_grid g with
                | Some (base, r) when r <> home -> Some (g, base, r, m)
                | _ -> None)
              (Stencil.reads s)
          in
          let foreign_ranks =
            List.sort_uniq compare (List.map (fun (_, _, r, _) -> r) foreign)
          in
          if List.length foreign_ranks > 1 then begin
            fatal := true;
            emit
              (sf032 group i s
                 (Printf.sprintf
                    "cross-rank reduction: stencil gathers from %d foreign \
                     ranks (%s)"
                    (List.length foreign_ranks)
                    (String.concat ", "
                       (List.map rank_to_string foreign_ranks))))
          end
          else
            List.iter
              (fun (g, base, r', m) ->
                let delta =
                  List.map2 (fun a b -> a - b) home r'
                in
                let diff_axes =
                  List.filteri (fun _ d -> d <> 0) delta |> List.length
                in
                let axis =
                  match
                    List.mapi (fun a d -> (a, d)) delta
                    |> List.find_opt (fun (_, d) -> d <> 0)
                  with
                  | Some (a, _) -> a
                  | None -> stream_axis
                in
                if
                  diff_axes <> 1
                  || List.exists (fun d -> abs d > 1) delta
                then begin
                  fatal := true;
                  emit
                    (sf032 group i s
                       (Printf.sprintf
                          "cross-rank read of '%s' from non-neighbour rank \
                           %s (home %s): only face-adjacent transfers can be \
                           streamed"
                          g (rank_to_string r') (rank_to_string home)))
                end
                else if not (is_pure_copy s) then begin
                  fatal := true;
                  emit
                    (sf032 group i s
                       (Printf.sprintf
                          "cross-rank read of '%s' is embedded in \
                           computation: a streamable transfer must be a pure \
                           halo copy stencil"
                          g))
                end
                else begin
                  (* producer: latest intersecting writer of g on r' before
                     us (same sweep), else the latest in the whole group
                     (previous sweep). *)
                  let rlats = resolved_read s m in
                  let intersecting j =
                    String.equal stencils.(j).Stencil.output g
                    && Footprint.lattice_lists_intersect (writes_of j) rlats
                  in
                  let latest_before k =
                    let rec go j best =
                      if j >= k then best
                      else go (j + 1) (if intersecting j then Some j else best)
                    in
                    go 0 None
                  in
                  match (latest_before i, latest_before n) with
                  | None, None -> () (* static foreign grid: no channel *)
                  | Some j, _ when stage_of.(j) >= stage_of.(i) ->
                      fatal := true;
                      emit
                        (sf032 group i s
                           (Printf.sprintf
                              "backward dependence along the stream axis: \
                               producer '%s' is not scheduled before this \
                               stage"
                              stencils.(j).Stencil.label))
                  | producer_opt, fallback ->
                      let producer, delay =
                        match producer_opt with
                        | Some j -> (j, 0)
                        | None -> (Option.get fallback, 1)
                      in
                      let slopes =
                        Dependence.read_slopes ~shape ~axis
                          ~before:stencils.(producer) ~after:s
                      in
                      let slope =
                        match slopes with
                        | [] -> (m.Affine.scale.(axis), m.Affine.offset.(axis))
                        | sl ->
                            List.fold_left
                              (fun (bs, bo) (sc, o) ->
                                if abs o > abs bo then (sc, o) else (bs, bo))
                              (List.hd sl) sl
                      in
                      if fst slope <> 1 then begin
                        fatal := true;
                        emit
                          (sf032 group i s
                             (Printf.sprintf
                                "cross-rank read of '%s' at scale %d: \
                                 scale-changing transfers (restriction/\
                                 interpolation across ranks) cannot be \
                                 streamed as fixed-width planes"
                                g (fst slope)))
                      end
                      else
                        edges :=
                          {
                            e_base = base;
                            e_src_rank = r';
                            e_axis = axis;
                            e_src_grid = g;
                            e_consumer = i;
                            e_producer = producer;
                            e_delay = delay;
                            e_offset = m.Affine.offset;
                            e_slope = slope;
                          }
                          :: !edges
                end)
              foreign
        end)
      stencils;
    let edges = List.rev !edges in
    if !fatal then (None, List.rev !diags)
    else begin
      (* --------------------------------------- ASAP schedule (unrolled) *)
      let nranks = List.length ranks in
      let rank_index =
        let tbl = Hashtbl.create 8 in
        List.iteri (fun i r -> Hashtbl.add tbl r i) ranks;
        fun r -> Hashtbl.find tbl r
      in
      let window = nranks + 4 in
      let node w ri st = ((w * nranks) + ri) * stages + st in
      let nnodes = window * nranks * stages in
      let start = Array.make nnodes 0 in
      let finish w ri st = start.(node w ri st) + 1 in
      for w = 0 to window - 1 do
        for st = 0 to stages - 1 do
          for ri = 0 to nranks - 1 do
            let t = ref 0 in
            if st > 0 then t := max !t (finish w ri (st - 1));
            if st = 0 && w > 0 then t := max !t (finish (w - 1) ri (stages - 1));
            List.iter
              (fun e ->
                if
                  rank_index rank_of.(e.e_consumer) = ri
                  && stage_of.(e.e_consumer) = st
                  && w - e.e_delay >= 0
                then
                  t :=
                    max !t
                      (finish (w - e.e_delay)
                         (rank_index e.e_src_rank)
                         stage_of.(e.e_producer)))
              edges;
            start.(node w ri st) <- !t
          done
        done
      done;
      (* ------------------------------------------------- channel sizing *)
      let mk_channel e =
        let cons = stencils.(e.e_consumer) in
        let dst = rank_of.(e.e_consumer) in
        let dst_grid, ghost = Footprint.write_footprint ~shape cons in
        let src_ri = rank_index e.e_src_rank and dst_ri = rank_index dst in
        let src_stage = stage_of.(e.e_producer)
        and dst_stage = stage_of.(e.e_consumer) in
        let send m =
          if m < e.e_delay then 0
          else finish (m - e.e_delay) src_ri src_stage
        in
        let recv m = start.(node m dst_ri dst_stage) in
        let depth = ref 1 in
        for m = 0 to window - 1 do
          let rm = recv m in
          let sent = ref 0 and consumed = ref 0 in
          for m' = 0 to window - 1 do
            if send m' <= rm then incr sent;
            if m' < m && recv m' < rm then incr consumed
          done;
          depth := max !depth (!sent - !consumed)
        done;
        let depth =
          match depth_override with Some d -> d | None -> !depth
        in
        {
          base = e.e_base;
          src = e.e_src_rank;
          dst;
          axis = e.e_axis;
          src_grid = e.e_src_grid;
          dst_grid;
          src_stage;
          dst_stage;
          wave_delay = e.e_delay;
          consumer = e.e_consumer;
          producer = e.e_producer;
          ghost;
          offset = e.e_offset;
          slope = e.e_slope;
          depth;
          plane_points = Domain.npoints_union ghost;
        }
      in
      let channels = List.map mk_channel edges in
      (* ------------------------------------- deadlock proof (liveness) *)
      (* Forward edges plus capacity back-edges (the (m+depth)-th send
         waits on the m-th receive); a cycle in the unrolled graph is a
         deadlock witness. *)
      let adj = Array.make nnodes [] in
      let add_edge a b = adj.(a) <- b :: adj.(a) in
      for w = 0 to window - 1 do
        for ri = 0 to nranks - 1 do
          for st = 0 to stages - 1 do
            if st > 0 then add_edge (node w ri (st - 1)) (node w ri st);
            if st = 0 && w > 0 then
              add_edge (node (w - 1) ri (stages - 1)) (node w ri 0)
          done
        done
      done;
      List.iter
        (fun c ->
          let src_ri = rank_index c.src and dst_ri = rank_index c.dst in
          for m = 0 to window - 1 do
            (* forward: send of message m enables its receive *)
            if m - c.wave_delay >= 0 then
              add_edge
                (node (m - c.wave_delay) src_ri c.src_stage)
                (node m dst_ri c.dst_stage);
            (* back-pressure: message m+depth cannot be sent before
               message m is consumed *)
            let m' = m + c.depth - c.wave_delay in
            if m' >= 0 && m' < window then
              add_edge (node m dst_ri c.dst_stage) (node m' src_ri c.src_stage)
          done)
        channels;
      let label_of id =
        let st = id mod stages in
        let wr = id / stages in
        let ri = wr mod nranks and w = wr / nranks in
        Printf.sprintf "wave %d/rank %s/stage %d" w
          (rank_to_string (List.nth ranks ri))
          st
      in
      let state = Array.make nnodes 0 (* 0 new, 1 on stack, 2 done *) in
      let witness = ref None in
      let rec dfs path id =
        if state.(id) = 1 then begin
          (* [path] holds ancestors, immediate parent first: the cycle is
             [id .. parent] in visit order, closed by [id] again *)
          let rec take acc = function
            | [] -> acc
            | x :: rest -> if x = id then x :: acc else take (x :: acc) rest
          in
          witness := Some (take [] path @ [ id ])
        end
        else if state.(id) = 0 then begin
          state.(id) <- 1;
          List.iter
            (fun nxt -> if !witness = None then dfs (id :: path) nxt)
            adj.(id);
          state.(id) <- 2
        end
      in
      for id = 0 to nnodes - 1 do
        if !witness = None then dfs [] id
      done;
      let bytes =
        List.fold_left
          (fun acc c -> acc + (c.depth * c.plane_points * 8))
          0 channels
      in
      match !witness with
      | Some cycle ->
          let cyc = String.concat " -> " (List.map label_of cycle) in
          emit
            (Diagnostics.make ~code:"SF031" ~severity:Diagnostics.Error
               ~loc:(Srcloc.group group.Group.label)
               ~hint:
                 "grow the named channels' depths (remove the depth \
                  override) or fall back to bulk-synchronous Spmd.run_group"
               (Printf.sprintf
                  "unsatisfiable channel sizing: the capacity-constrained \
                   pipeline graph has a zero-slack cycle: %s"
                  cyc));
          (None, List.rev !diags)
      | None ->
          let cert =
            {
              group_label = group.Group.label;
              stream_axis;
              stages;
              ranks;
              stage_of;
              rank_of;
              channels;
              bytes;
            }
          in
          if bytes > budget_bytes then
            emit
              (Diagnostics.make ~code:"SF033" ~severity:Diagnostics.Warning
                 ~loc:(Srcloc.group group.Group.label)
                 ~hint:
                   "raise the budget (SF_PIPE_BUDGET, or \
                    Pipeline_check.analyze ~budget_bytes) or run \
                    bulk-synchronously via Spmd.run_group"
                 (Printf.sprintf
                    "certified channel depths need %d bytes of ring buffers, \
                     over the %d-byte budget; the bulk-synchronous fallback \
                     (Spmd.run_group) uses no channel memory"
                    bytes budget_bytes));
          let dmin, dmax =
            List.fold_left
              (fun (lo, hi) c -> (min lo c.depth, max hi c.depth))
              (max_int, 0) channels
          in
          let dmin = if channels = [] then 0 else dmin in
          emit
            (Diagnostics.make ~code:"SF030" ~severity:Diagnostics.Note
               ~loc:(Srcloc.group group.Group.label)
               ~hint:
                 (String.concat "; "
                    (List.map
                       (fun c ->
                         Printf.sprintf
                           "%s %s->%s ax%d stage %d->%d%s depth %d" c.base
                           (rank_to_string c.src) (rank_to_string c.dst)
                           c.axis c.src_stage c.dst_stage
                           (if c.wave_delay > 0 then
                              Printf.sprintf " (+%d wave)" c.wave_delay
                            else "")
                           c.depth)
                       channels))
               (Printf.sprintf
                  "pipeline certified: %d stage(s) x %d rank(s), %d \
                   channel(s), depths %d..%d, %d bytes buffered"
                  stages nranks (List.length channels) dmin dmax bytes));
          (Some cert, List.rev !diags)
    end
  end

(* ------------------------------------------------------ the SF034 gate *)

let verify_depths cert ~depths =
  let certified = List.map (fun c -> c.depth) cert.channels in
  if List.length depths <> List.length certified then
    [
      Diagnostics.make ~code:"SF034" ~severity:Diagnostics.Error
        ~loc:(Srcloc.group cert.group_label)
        ~hint:"recertify the plan: the executor's channel set was rebuilt"
        (Printf.sprintf
           "executed plan has %d channel(s) but the certificate sized %d"
           (List.length depths) (List.length certified));
    ]
  else
    List.concat
      (List.map2
         (fun c d ->
           if d = c.depth then []
           else
             [
               Diagnostics.make ~code:"SF034" ~severity:Diagnostics.Error
                 ~loc:(Srcloc.group cert.group_label)
                 ~hint:
                   "the executor must allocate exactly the certified ring \
                    depths; rerun certification if the plan changed"
                 (Printf.sprintf
                    "channel %s %s->%s runs at depth %d but was certified at \
                     depth %d"
                    c.base (rank_to_string c.src) (rank_to_string c.dst) d
                    c.depth);
             ])
         cert.channels depths)

let describe cert =
  let dmin, dmax =
    List.fold_left
      (fun (lo, hi) c -> (min lo c.depth, max hi c.depth))
      (max_int, 0) cert.channels
  in
  let dmin = if cert.channels = [] then 0 else dmin in
  Printf.sprintf
    "%d stage(s) x %d rank(s), %d channel(s), depths %d..%d, %d bytes"
    cert.stages
    (List.length cert.ranks)
    (List.length cert.channels)
    dmin dmax cert.bytes
