(* Shared plumbing for the benchmark: clocks, order statistics, metric
   records, process probes, reply references, the benchmark-owned span
   buffer and the pinned environment. *)

module Json = Sf_trace.Json

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------ statistics *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* The highest order statistic with 10 samples above it (the 11th
   largest) over the whole array, and the percentile it sits at.  With
   too few samples it degrades to the maximum. *)
let tail a =
  let beyond = 10 in
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (Float.nan, 0.)
  else if n <= beyond then (s.(n - 1), 100.)
  else (s.(n - 1 - beyond), 100. *. float_of_int (n - beyond) /. float_of_int n)

(* Run [f] until at least [min_reps] calls and [min_s] seconds have gone
   by (at most 1000 calls); per-call wall times in seconds. *)
let sample ~min_reps ~min_s f =
  let acc = ref [] and n = ref 0 and t_start = now () in
  while !n < 1000 && (!n < min_reps || now () -. t_start < min_s) do
    let t0 = now () in
    f ();
    acc := (now () -. t0) :: !acc;
    incr n
  done;
  Array.of_list (List.rev !acc)

(* Per-call seconds of a call too short to time alone: 21 timings of
   [per_batch] back-to-back calls each. *)
let sample_batched ~per_batch f =
  Array.init 21 (fun _ ->
      let t0 = now () in
      for _ = 1 to per_batch do
        f ()
      done;
      (now () -. t0) /. float_of_int per_batch)

(* ---------------------------------------------------------------- metrics *)

(* One timed phase of ops. *)
type phase = {
  lat : float array;  (** per-op latency, seconds, in start order *)
  wall : float;  (** wall time of the phase, seconds *)
  attempted : int;
  failed : int;
}

(* Sub-phases of one phase, run at different times, as one phase. *)
let merge_phases = function
  | [] -> { lat = [||]; wall = 0.; attempted = 0; failed = 0 }
  | ps ->
      {
        lat = Array.concat (List.map (fun p -> p.lat) ps);
        wall = List.fold_left (fun a p -> a +. p.wall) 0. ps;
        attempted = List.fold_left (fun a p -> a + p.attempted) 0 ps;
        failed = List.fold_left (fun a p -> a + p.failed) 0 ps;
      }

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let print_metrics ms =
  List.iter
    (fun m ->
      Printf.printf "  %-34s %16.6g %-6s %s\n" m.name m.value m.unit_ m.note)
    ms

(* The one-line result the harness reads: last line of stdout. *)
let result_line ~correct ~attempted ~failed ms =
  let num v =
    if not (Float.is_finite v) then
      failwith (Printf.sprintf "metric value %h is not finite" v);
    Json.Num v
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", num m.value); ("unit", Json.Str m.unit_) ]))
                ms) );
       ])

(* -------------------------------------------------------------- processes *)

(* A field of /proc/<pid>/status (default: this process), trimmed. *)
let status_field ?pid field =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let prefix = field ^ ":" in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           Some (String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)))
         else None)
  |> function
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: no %s field" path field)

(* A kB field ("VmHWM", "VmRSS", ...) of /proc/<pid>/status. *)
let status_kb ?pid field = Scanf.sscanf (status_field ?pid field) "%d kB" Fun.id

(* Variables [Config.default], [Guard] and [Autotune] read at start-up.
   The benchmark and every server it spawns run with none of them set. *)
let pinned_vars =
  [
    "SF_WORKERS"; "SF_FUSION"; "SF_VALIDATE"; "SF_TRACE"; "SF_FAULTS";
    "SF_GUARD"; "SF_SERIAL_CUTOFF"; "SF_PIPELINE"; "SF_PIPE_BUDGET";
    "SF_TUNE_DB";
  ]

let clean_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not (List.exists (fun v -> String.starts_with ~prefix:(v ^ "=") kv) pinned_vars))
  |> Array.of_list

(* Pin the environment, re-executing when anything needs to change:
   - the libraries read [pinned_vars] while the program loads, so they
     cannot be unset from inside;
   - the process (and every server it spawns) is bound to the first CPU
     it may use, through taskset when it is installed.  On a shared
     2-CPU VM, unpinned serve latencies doubled whenever the host was
     busy, because every hand-off between the client and the server then
     woke the other vCPU; pinned, they held within ~10 %. *)
let pin_environment () =
  let dirty = List.exists (fun v -> Sys.getenv_opt v <> None) pinned_vars in
  let cpus = status_field "Cpus_allowed_list" in
  let several = String.contains cpus ',' || String.contains cpus '-' in
  if several && Sys.getenv_opt "PERFBENCH_PINNED" = None then begin
    let first = List.hd (String.split_on_char ',' (List.hd (String.split_on_char '-' cpus))) in
    let args = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
    try
      Unix.execvpe "taskset"
        (Array.append [| "taskset"; "-c"; first; Sys.executable_name |] args)
        (Array.append (clean_env ()) [| "PERFBENCH_PINNED=1" |])
    with Unix.Unix_error _ -> ()
  end;
  if dirty then Unix.execve Sys.executable_name Sys.argv (clean_env ())

(* Child processes still running; killed and reaped on every exit path. *)
let children = ref []
let children_mx = Mutex.create ()

let add_child pid = Mutex.protect children_mx (fun () -> children := pid :: !children)

let remove_child pid =
  Mutex.protect children_mx (fun () -> children := List.filter (( <> ) pid) !children)

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (Mutex.protect children_mx (fun () -> !children))

(* A run that has not finished after [seconds] (a wedged server, say)
   kills its children and exits 3 without printing a result. *)
let watchdog seconds =
  ignore
    (Thread.create
       (fun () ->
         Unix.sleepf seconds;
         Printf.eprintf "perfbench: watchdog: no result after %.0f s\n%!" seconds;
         kill_children ();
         Unix._exit 3)
       ())

let read_file path =
  try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
  with Sys_error _ -> None

(* Commit of the checkout in the working directory, read from .git
   without running git (which would search parent directories). *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown (no .git in the working directory)"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (".git/" ^ r) with
      | Some rev -> rev
      | None -> (
          let packed =
            Option.value ~default:"" (read_file ".git/packed-refs")
            |> String.split_on_char '\n'
          in
          match
            List.find_opt (fun l -> String.ends_with ~suffix:(" " ^ r) l) packed
          with
          | Some l -> List.hd (String.split_on_char ' ' l)
          | None -> head))
  | Some rev -> rev

let out_dir = ".perfbench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* ------------------------------------------------------------- references *)

(* What a reply must hold: named grids, in name order (the order sfserved
   replies in). *)
type reference = (string * int list * Float.Array.t) list

let reference_of_grids (g : Sf_mesh.Grids.t) : reference =
  List.sort String.compare (Sf_mesh.Grids.names g)
  |> List.map (fun name ->
         let m = Sf_mesh.Grids.find g name in
         (name, Array.to_list (Sf_mesh.Mesh.shape m), Float.Array.copy (Sf_mesh.Mesh.data m)))

(* [a] and [b] hold the same IEEE-754 bits, element by element.  Reads
   both arrays once and allocates nothing.  Equal non-zero floats have
   equal bits, so only zeros, NaNs and mismatches compare the bits. *)
let same_bits (a : float array) (b : Float.Array.t) =
  let n = Array.length a in
  let rec go i =
    i = n
    ||
    let x = Array.unsafe_get a i and y = Float.Array.unsafe_get b i in
    ((x = y && x <> 0.) || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    && go (i + 1)
  in
  n = Float.Array.length b && go 0

(* A reply matches its reference bitwise: same grid names in the same
   order, same shapes, same bits. *)
let matches (r : reference) (grids : Sf_serve.Protocol.grid list) =
  List.compare_lengths r grids = 0
  && List.for_all2
       (fun (name, shape, data) (g : Sf_serve.Protocol.grid) ->
         String.equal name g.gname && shape = g.gshape && same_bits g.gdata data)
       r grids

(* ------------------------------------------------------------------ spans *)

(* Spans the benchmark records around its own calls into each layer:
   name, start, end and parent (0 = none).  Off by default; the traced
   run switches them on.  Bounded: once [cap] spans are held, further
   spans are counted as dropped instead of recorded. *)
module Spans = struct
  type t = { id : int; name : string; parent : int; t0 : float; t1 : float; tid : int }

  let on = ref false
  let cap = 1_000_000
  let buf = ref []
  let held = ref 0
  let dropped = ref 0
  let mx = Mutex.create ()
  let next_id = Atomic.make 1

  let record s =
    Mutex.protect mx (fun () ->
        if !held < cap then begin
          buf := s :: !buf;
          incr held
        end
        else incr dropped)

  (* [span ?parent name f] runs [f id]; [id] is 0 when spans are off. *)
  let span ?(parent = 0) name f =
    if not !on then f 0
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          record { id; name; parent; t0; t1 = now (); tid = Thread.id (Thread.self ()) })
        (fun () -> f id)
    end

  let count () = !held

  (* Chrome trace_event JSON: one complete ("X") event per span, with the
     span and parent ids as arguments. *)
  let write_chrome path =
    let spans = List.rev !buf in
    let base = List.fold_left (fun m s -> Float.min m s.t0) Float.infinity spans in
    let us x = Float.round ((x -. base) *. 1e6) in
    let ev s =
      Json.Obj
        [
          ("name", Json.Str s.name);
          ("cat", Json.Str "perfbench");
          ("ph", Json.Str "X");
          ("ts", Json.Num (us s.t0));
          ("dur", Json.Num (us s.t1 -. us s.t0));
          ("pid", Json.Num 1.);
          ("tid", Json.Num (float_of_int s.tid));
          ( "args",
            Json.Obj
              [ ("id", Json.Num (float_of_int s.id)); ("parent", Json.Num (float_of_int s.parent)) ] );
        ]
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("traceEvents", Json.Arr (List.map ev spans));
                  ("displayTimeUnit", Json.Str "ms");
                ])))
end
