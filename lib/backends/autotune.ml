(* Persistent roofline-guided autotuning (ROADMAP item 2).

   The plan space is the cross product the backends understand: fusion
   partition on/off x spatial tile sizes x temporal depth/block.  Plans
   are ranked *analytically* first — Costing's single-pass models joined
   with the measured (or assumed) STREAM bandwidth give a predicted time
   per plan — and only the top few predictions are confirmed by timed
   runs through the pool, so a tune costs a handful of kernel
   invocations, not an exhaustive sweep.  Winners persist in a JSON DB
   keyed by (group, shape, backend, workers, reps, machine fingerprint):
   a later run on the same machine replays the winning plan without
   measuring anything, and a run on different hardware or worker count
   misses and re-tunes. *)

open Sf_util
module Trace = Sf_trace.Trace
module Json = Sf_trace.Json

(* counted only while tracing *)
let db_hits = Sf_trace.Metrics.counter "autotune.db_hits"
let db_misses = Sf_trace.Metrics.counter "autotune.db_misses"

type plan = {
  fusion : bool;
  tile : int list option;
  time_tile : int;  (** 1 = no temporal blocking *)
  time_block : int;  (** axis-0 slab size, 0 = auto *)
}

let plan_of_config (c : Config.t) =
  {
    fusion = c.Config.fusion;
    tile = c.Config.tile;
    time_tile = c.Config.time_tile;
    time_block = c.Config.time_block;
  }

let apply p (c : Config.t) =
  {
    c with
    Config.fusion = p.fusion;
    tile = p.tile;
    time_tile = p.time_tile;
    time_block = p.time_block;
  }

let describe p =
  let tile =
    match p.tile with
    | None -> "auto"
    | Some t -> String.concat "x" (List.map string_of_int t)
  in
  Printf.sprintf "fusion=%b tile=%s time_tile=%d time_block=%d" p.fusion tile
    p.time_tile p.time_block

type source = Db | Measured | Analytic

let source_to_string = function
  | Db -> "db"
  | Measured -> "measured"
  | Analytic -> "analytic"

type result = {
  plan : plan;
  config : Config.t;  (** the caller's config with the plan applied *)
  predicted_s : float;
  measured_s : float option;  (** [None] on a DB hit or analytic-only tune *)
  source : source;
}

(* ------------------------------------------------------------- the key *)

let machine_fingerprint () =
  Printf.sprintf "%s/w%d/d%d" Sys.os_type Sys.word_size
    (Stdlib.Domain.recommended_domain_count ())

let default_db_path () =
  match Sys.getenv_opt "SF_TUNE_DB" with
  | Some p when String.trim p <> "" -> p
  | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some home when String.trim home <> "" ->
          List.fold_left Filename.concat home
            [ ".cache"; "snowflake"; "tuning.json" ]
      | _ -> Filename.concat "." ".snowflake-tuning.json")

type key = {
  group_hash : int;
  label : string;
  shape : int list;
  backend : string;
  workers : int;
  reps : int;
  machine : string;
}

let key ~config ~backend ~shape ~reps (group : Snowflake.Group.t) =
  {
    group_hash = Snowflake.Group.hash group;
    label = group.Snowflake.Group.label;
    shape = Ivec.to_list shape;
    backend;
    workers = config.Config.workers;
    reps;
    machine = machine_fingerprint ();
  }

(* ---------------------------------------------------------- JSON coding *)

let json_of_key k =
  [
    (* hex string, not Num: group hashes use the full 63-bit range and a
       JSON double only carries 53 bits of integer precision *)
    ("group_hash", Json.Str (Printf.sprintf "%x" k.group_hash));
    ("label", Json.Str k.label);
    ("shape", Json.Arr (List.map (fun d -> Json.Num (float_of_int d)) k.shape));
    ("backend", Json.Str k.backend);
    ("workers", Json.Num (float_of_int k.workers));
    ("reps", Json.Num (float_of_int k.reps));
    ("machine", Json.Str k.machine);
  ]

let json_of_plan p =
  Json.Obj
    [
      ("fusion", Json.Bool p.fusion);
      ( "tile",
        match p.tile with
        | None -> Json.Null
        | Some t -> Json.Arr (List.map (fun d -> Json.Num (float_of_int d)) t)
      );
      ("time_tile", Json.Num (float_of_int p.time_tile));
      ("time_block", Json.Num (float_of_int p.time_block));
    ]

let int_member name obj =
  match Json.member name obj with
  | Some (Json.Num f) -> Some (int_of_float f)
  | _ -> None

let str_member name obj =
  match Json.member name obj with Some (Json.Str s) -> Some s | _ -> None

let plan_of_json j =
  match (Json.member "fusion" j, int_member "time_tile" j) with
  | Some (Json.Bool fusion), Some time_tile ->
      let tile =
        match Json.member "tile" j with
        | Some (Json.Arr ds) ->
            Some
              (List.filter_map
                 (function Json.Num f -> Some (int_of_float f) | _ -> None)
                 ds)
        | _ -> None
      in
      let time_block =
        Option.value ~default:0 (int_member "time_block" j)
      in
      Some { fusion; tile; time_tile; time_block }
  | _ -> None

let key_matches k entry =
  str_member "group_hash" entry = Some (Printf.sprintf "%x" k.group_hash)
  && str_member "label" entry = Some k.label
  && str_member "backend" entry = Some k.backend
  && int_member "workers" entry = Some k.workers
  && int_member "reps" entry = Some k.reps
  && str_member "machine" entry = Some k.machine
  &&
  match Json.member "shape" entry with
  | Some (Json.Arr ds) ->
      List.filter_map
        (function Json.Num f -> Some (int_of_float f) | _ -> None)
        ds
      = k.shape
  | _ -> false

(* -------------------------------------------------------------- the DB *)

let load_entries path =
  if not (Sys.file_exists path) then []
  else
    match
      In_channel.with_open_text path In_channel.input_all |> Json.of_string
    with
    | Ok (Json.Obj fields) -> (
        match List.assoc_opt "entries" fields with
        | Some (Json.Arr entries) -> entries
        | _ -> [])
    | _ -> [] (* a corrupt DB is equivalent to an empty one *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Atomic publication: write a *unique* temp file in the DB's directory,
   then rename over the DB.  The temp name must be unique per writer — a
   fixed [path ^ ".tmp"] lets two processes sharing one DB (many tenants,
   one tuning cache) interleave writes into the same temp file and rename
   torn bytes into place, or race the rename itself ([Sys_error] when the
   loser's temp vanished).  [Filename.temp_file] creates the file
   exclusively, so concurrent writers each publish a complete document and
   the DB is last-writer-wins but never corrupt. *)
let save_entries path entries =
  mkdir_p (Filename.dirname path);
  let doc =
    Json.Obj [ ("version", Json.Num 1.); ("entries", Json.Arr entries) ]
  in
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path)
      (Filename.basename path ^ ".") ".tmp"
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_text tmp (fun oc ->
          Out_channel.output_string oc (Json.to_string doc);
          Out_channel.output_string oc "\n");
      Sys.rename tmp path)

let db_lookup ~path k =
  List.find_map
    (fun entry ->
      if key_matches k entry then
        Option.bind (Json.member "plan" entry) (fun p -> plan_of_json p)
      else None)
    (load_entries path)

let db_store ~path k plan ~predicted_s ~measured_s =
  let keep =
    List.filter (fun entry -> not (key_matches k entry)) (load_entries path)
  in
  let entry =
    Json.Obj
      (json_of_key k
      @ [
          ("plan", json_of_plan plan);
          ("predicted_s", Json.Num predicted_s);
          ("measured_s", Json.Num measured_s);
        ])
  in
  save_entries path (keep @ [ entry ])

(* ------------------------------------------------- candidates + ranking *)

let tile_options shape =
  let ndims = Array.length shape in
  let cube d = Some (List.init ndims (fun _ -> d)) in
  [ None; cube 8; cube 16 ]

let candidates (config : Config.t) ~shape ~reps group =
  let fusible =
    Fusion.fused_count
      (Fusion.partition { config with Config.fusion = true } ~shape group)
    > 0
  in
  let fusions = if fusible then [ false; true ] else [ false ] in
  let spatial =
    List.concat_map
      (fun fusion ->
        List.map
          (fun tile -> { fusion; tile; time_tile = 1; time_block = 0 })
          (tile_options shape))
      fusions
  in
  let temporal =
    if reps >= 2 && Timetile.legal ~shape group then
      List.map
        (fun time_block ->
          { fusion = false; tile = config.Config.tile; time_tile = reps;
            time_block })
        [ 0; 8; 16 ]
    else []
  in
  spatial @ temporal

(* assumed sustained rates when no STREAM measurement has been joined:
   pessimistic bandwidth, optimistic-enough flops — bytes dominate for
   every stencil in this repository, matching the roofline reports *)
let fallback_bw_gbs = 10.
let flops_per_s = 2e9

let predicted_seconds (config : Config.t) ~shape ~reps group p =
  let cost =
    if p.time_tile > 1 then Costing.of_timetile ~shape ~reps group
    else
      let one =
        if p.fusion then
          Costing.of_clusters ~shape
            (List.map
               (fun (c : Fusion.cluster) -> c.Fusion.members)
               (Fusion.partition (apply p config) ~shape group))
        else Costing.of_group ~shape group
      in
      {
        Costing.cells = reps * one.Costing.cells;
        flops = reps * one.Costing.flops;
        bytes = reps * one.Costing.bytes;
      }
  in
  let bw = Trace.bandwidth_gbs () in
  let bw = if bw > 0. then bw else fallback_bw_gbs in
  (float_of_int cost.Costing.bytes /. (bw *. 1e9))
  +. (float_of_int cost.Costing.flops /. flops_per_s)

let tune ?db ?(top = 3) ?(persist = true) ~config ~backend ~shape ~reps
    ~measure group =
  let path = match db with Some p -> p | None -> default_db_path () in
  let bname = Jit.backend_name backend in
  let k = key ~config ~backend:bname ~shape ~reps group in
  match db_lookup ~path k with
  | Some plan ->
      if Trace.on () then Atomic.incr db_hits;
      {
        plan;
        config = apply plan config;
        predicted_s = predicted_seconds config ~shape ~reps group plan;
        measured_s = None;
        source = Db;
      }
  | None ->
      if Trace.on () then Atomic.incr db_misses;
      let ranked =
        candidates config ~shape ~reps group
        |> List.map (fun p ->
               (p, predicted_seconds config ~shape ~reps group p))
        |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a b)
      in
      let confirm = List.filteri (fun i _ -> i < max 1 top) ranked in
      let winner =
        confirm
        |> List.map (fun (p, predicted_s) ->
               (p, predicted_s, measure (apply p config)))
        |> List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare a b)
        |> List.hd
      in
      let plan, predicted_s, measured_s = winner in
      if persist then
        db_store ~path k plan ~predicted_s ~measured_s;
      {
        plan;
        config = apply plan config;
        predicted_s;
        measured_s = Some measured_s;
        source = Measured;
      }

(* ------------------------------------------- direct DB access (served) *)

let db_is_wellformed ~db =
  (not (Sys.file_exists db))
  ||
  match
    In_channel.with_open_text db In_channel.input_all |> Json.of_string
  with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "entries" fields with
      | Some (Json.Arr _) -> true
      | _ -> false)
  | _ -> false

let db_entry_count ~db = List.length (load_entries db)

let db_persist ~db ~config ~backend ~shape ~reps ~plan ?(predicted_s = 0.)
    ?(measured_s = 0.) group =
  let k = key ~config ~backend:(Jit.backend_name backend) ~shape ~reps group in
  db_store ~path:db k plan ~predicted_s ~measured_s

let db_replay ~db ~config ~backend ~shape ~reps group =
  db_lookup ~path:db
    (key ~config ~backend:(Jit.backend_name backend) ~shape ~reps group)
