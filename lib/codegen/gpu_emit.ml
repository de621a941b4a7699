open Sf_util
open Snowflake
open Sf_backends

type dialect = {
  compiler : string;
  header : string;
  kernel : string;
  space : string;
  restrict : string;
  global_id : int -> C_ast.expr;
  launch : Config.t -> string -> Ivec.t option -> string;
}

let id_var i = Printf.sprintf "g%d" i

let extents cnt =
  String.concat ", " (List.rev_map string_of_int (Array.to_list cnt))

(* Two tiles of one lattice merge when together they fill their hull. *)
let hull (a : Domain.resolved) (b : Domain.resolved) =
  let h =
    Domain.
      {
        rlo = Ivec.min2 a.rlo b.rlo;
        rhi = Ivec.max2 a.rhi b.rhi;
        rstride = a.rstride;
      }
  in
  if
    Ivec.equal a.rstride b.rstride
    && Array.for_all2 (fun d s -> d mod s = 0) (Ivec.sub a.rlo b.rlo) a.rstride
    && Domain.npoints h = Domain.npoints a + Domain.npoints b
  then Some h
  else None

type launch =
  | Range of Stencil.t list * Domain.resolved
      (** one work-item per point, running the members in order *)
  | Single of Plan.task  (** one work-item running the task's steps *)

(* Merge a tile into a wave's launches; a merged box retries them all. *)
let rec add ((ms, box) as r) seen = function
  | [] -> List.rev (Range (ms, box) :: seen)
  | (Range (ms', b) as l) :: rest -> (
      match if List.equal ( == ) ms ms' then hull box b else None with
      | Some h -> add (ms, h) [] (List.rev_append seen rest)
      | None -> add r (l :: seen) rest)
  | l :: rest -> add r (l :: seen) rest

(* A task whose steps share one tile and whose members are all
   point-parallel joins its members' NDRange; any other task (a sequential
   stencil's rects) is one work-item. *)
let launches t (w : Plan.wave) =
  Array.fold_left
    (fun acc task ->
      match task with
      | (_, tile) :: rest
        when (not (Lower.sequential t task))
             && List.for_all (fun (_, r) -> r = tile) rest ->
          add (Plan.members task, tile) [] acc
      | _ -> acc @ [ Single task ])
    [] w.Plan.tasks

(* Axis i of the iteration space is id dimension (n-1-i): the innermost
   axis gets the fastest-varying id (coalesced accesses). *)
let range_body d t members (box : Domain.resolved) =
  let n = Ivec.dims box.Domain.rlo and cnt = Domain.counts box in
  let ids =
    List.init n (fun i ->
        C_ast.Decl ("const long", id_var i, d.global_id (n - 1 - i)))
  in
  let coords =
    List.init n (fun i ->
        C_ast.Decl
          ( "const long",
            Lower.loop_var i,
            C_ast.(
              add (Int box.Domain.rlo.(i))
                (mul (Var (id_var i)) (Int box.Domain.rstride.(i)))) ))
  in
  let guard =
    List.init n (fun i -> C_ast.(Bin ("<", Var (id_var i), Int cnt.(i))))
  in
  let point = Lower.point n in
  ids @ coords
  @ [
      C_ast.If
        ( List.fold_left (fun a b -> C_ast.Bin ("&&", a, b)) (List.hd guard)
            (List.tl guard),
          List.map (Lower.write ~grid_strides:t.Lower.strides ~point) members );
    ]

let emit d ?config ~shape ~grid_shapes group =
  let n = Group.dims group in
  if n > 3 then invalid_arg (d.compiler ^ ": kernels are at most rank 3");
  let t =
    Lower.prepare ?config Jit.Opencl ~shape ~grid_shapes
      ~reserved:(List.init n (fun i -> ("the work-item id", id_var i)))
      group
  in
  let group = t.Lower.plan.Plan.group in
  let params = Lower.func_params ~space:d.space ~restrict:d.restrict group in
  let kernel w k launch =
    let label, body, counts =
      match launch with
      | Range (ms, box) ->
          ( Plan.task_label (List.map (fun s -> (s, box)) ms),
            range_body d t ms box,
            Some (Domain.counts box) )
      | Single task ->
          ( Plan.task_label task,
            Lower.task_loops ~grid_strides:t.Lower.strides task,
            None )
    in
    let fname = Printf.sprintf "k%d_%d_%s" w k (Lower.sanitize label) in
    ( C_ast.{ qualifier = d.kernel; ret = "void"; fname; params; body },
      "     " ^ d.launch t.Lower.config fname counts )
  in
  let waves =
    List.mapi
      (fun w wave ->
        ( Printf.sprintf "     // wave %d: %s" w wave.Plan.label,
          List.mapi (kernel w) (launches t wave) ))
      t.Lower.plan.Plan.waves
  in
  let kernels = List.concat_map snd waves in
  C_pp.file_to_string
    ~prelude:(Lower.banner t ~compiler:d.compiler @ [ d.header ])
    (List.map fst kernels)
  ^ "\n"
  ^ String.concat "\n"
      (("/* Host sketch: one in-order queue (stream), so each launch waits for"
       :: "   the one before it, as the plan's barriers require:"
       :: List.concat_map (fun (c, ks) -> c :: List.map snd ks) waves)
      @ [ " */" ])
  ^ "\n"
