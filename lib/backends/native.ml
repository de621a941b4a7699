(* Counted whether or not tracing is on: a long-lived server reports
   them in STATS. *)
let counter name = Sf_trace.Metrics.counter ("native." ^ name)
let failures_c = counter "failures"
let structures_c = counter "structures"
let compiles_c = counter "compiles"
let compile_ms_c = counter "compile_ms"
let disk_hits_c = counter "disk_hits"
let promotions_c = counter "promotions"

type entry = floatarray array -> floatarray -> int array -> unit
type verdict = Run of entry array | Interpret | Measure

(* [Promoted (Run fs)]: the verdict is built once, not per tile *)
type state = Cold | Promoting | Promoted of verdict | Failed

type t = {
  forms : Native_emit.t array;
  mutable artefact : (string * bool) option;
      (** [sfk_<digest>] (also the unit and registered name), and whether a
          built module was on disk when the name was first needed *)
  state : state Atomic.t;
  cold_ns : int Atomic.t;  (** closure-tier time spent on its tiles *)
}

type mode = Auto | Off | Force

let mode_a = Atomic.make Auto

let with_mode m f =
  let prev = Atomic.exchange mode_a m in
  Fun.protect ~finally:(fun () -> Atomic.set mode_a prev) f

external named_value : string -> Obj.t = "sf_native_named_value"

(* ------------------------------------------------------------ settings *)

let mu = Mutex.create ()
let compiler_a = Atomic.make Native_toolchain.ocamlopt
let cache_override = Atomic.make None

(* [Some r] once the compiler has been looked for *)
let avail : (unit, string) result option Atomic.t = Atomic.make None

(* [Some r] once the cache directory has been created and checked *)
let dir_a : (string, string) result option Atomic.t = Atomic.make None
let failure_log = ref []

let fail msg =
  Atomic.incr failures_c;
  Mutex.protect mu (fun () ->
      failure_log := List.filteri (fun i _ -> i < 16) (msg :: !failure_log))

let failures () = Mutex.protect mu (fun () -> !failure_log)
let compiler () = Atomic.get compiler_a

let forget () =
  Atomic.set avail None;
  Atomic.set dir_a None

let set_compiler path =
  Atomic.set compiler_a path;
  forget ()

let set_cache_dir dir =
  Atomic.set cache_override (Some dir);
  forget ()

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let cache_dir () =
  let nonempty v = match Sys.getenv_opt v with Some "" | None -> None | s -> s in
  match Atomic.get cache_override with
  | Some d -> Some (absolute d)
  | None -> (
      match (nonempty "XDG_CACHE_HOME", nonempty "HOME") with
      | Some x, _ ->
          Some (List.fold_left Filename.concat (absolute x) [ "snowflake"; "native" ])
      | None, Some h ->
          Some (List.fold_left Filename.concat h [ ".cache"; "snowflake"; "native" ])
      | None, None -> None)

(* mkdir -p; components this creates are private to the user *)
let rec ensure_dir d =
  if not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Modules loaded from here run in this process: refuse a directory that
   someone else could write into. *)
let check_dir () =
  match cache_dir () with
  | None -> failwith "native tier: neither XDG_CACHE_HOME nor HOME is set"
  | Some d ->
      (try ensure_dir d
       with Unix.Unix_error (e, _, _) ->
         failwith
           (Printf.sprintf "native tier: cannot create %s: %s" d
              (Unix.error_message e)));
      let st = Unix.stat d in
      if st.Unix.st_uid <> Unix.getuid () || st.Unix.st_perm land 0o022 <> 0 then
        failwith (Printf.sprintf "native tier: %s is writable by other users" d);
      d

let check_mu = Mutex.create ()

(* Checked once per setting; a failure is recorded the first time only. *)
let once cell check =
  match Atomic.get cell with
  | Some r -> r
  | None ->
      Mutex.protect check_mu (fun () ->
          match Atomic.get cell with
          | Some r -> r
          | None ->
              let r =
                match check () with
                | v -> Ok v
                | exception Failure msg ->
                    fail msg;
                    Error msg
              in
              Atomic.set cell (Some r);
              r)

(* Only looks for the compiler: the cache directory is created when the
   first module is built or loaded, never by runs that do not promote. *)
let available () =
  Result.is_ok
    (once avail (fun () ->
         let cc = compiler () in
         if not (Sys.file_exists cc) then
           failwith (Printf.sprintf "native tier: no compiler at %s" cc)))

let the_cache_dir () = once dir_a check_dir

(* -------------------------------------------------------- specialisations *)

let artefact dir name = Filename.concat dir (name ^ ".cmxs")

let make forms =
  Atomic.incr structures_c;
  { forms; artefact = None; state = Atomic.make Cold; cold_ns = Atomic.make 0 }

(* Worked out the first time a specialisation is a candidate for
   promotion: printing and digesting its program is not free, and most
   specialisations never get that far.  Racing domains compute the same
   value. *)
let artefact_of st =
  match st.artefact with
  | Some a -> a
  | None ->
      let digest = Digest.string (Native_emit.program st.forms ^ Sys.ocaml_version) in
      let name = "sfk_" ^ Digest.to_hex digest in
      let on_disk =
        match cache_dir () with
        | Some d -> Sys.file_exists (artefact d name)
        | None -> false
      in
      st.artefact <- Some (name, on_disk);
      (name, on_disk)

(* ----------------------------------------------------------- promotion *)

external clock : unit -> (int[@untagged])
  = "sf_native_clock_byte" "sf_native_clock"
[@@noalloc]

(* What native code costs to get: the last measured build or load.  The
   seeds are typical first costs: a build of a module this small, and a
   process's first load, which also initialises Dynlink. *)
let compile_ns = Atomic.make 50_000_000
let load_ns = Atomic.make 5_000_000

let build_seq = Atomic.make 0

let remove_tree d =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
       (Sys.readdir d)
   with Sys_error _ -> ());
  try Unix.rmdir d with Unix.Unix_error _ -> ()

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let run_compiler ~log args =
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () -> Unix.create_process args.(0) args null out out)
  in
  match wait pid with
  | Unix.WEXITED 0 -> ()
  | status ->
      let why =
        match status with
        | Unix.WEXITED n -> Printf.sprintf "exited %d" n
        | Unix.WSIGNALED n | Unix.WSTOPPED n -> Printf.sprintf "killed by signal %d" n
      in
      let first =
        try In_channel.with_open_text log In_channel.input_line with Sys_error _ -> None
      in
      failwith
        (Printf.sprintf "%s %s%s" args.(0) why
           (match first with Some l -> ": " ^ l | None -> ""))

(* Build in a private directory next to the cache, then rename the module
   into place: a concurrent reader sees no file or a whole one. *)
let build st ~name dir path =
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".build-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add build_seq 1))
  in
  Unix.mkdir tmp 0o700;
  Fun.protect
    ~finally:(fun () -> remove_tree tmp)
    (fun () ->
      let ml = Filename.concat tmp (name ^ ".ml") in
      Out_channel.with_open_text ml (fun oc ->
          output_string oc (Native_emit.program st.forms);
          output_string oc (Native_emit.registration name));
      let out = artefact tmp name in
      let t0 = clock () in
      run_compiler ~log:(Filename.concat tmp "build.log")
        [| compiler (); "-shared"; "-w"; "-a"; "-o"; out; ml |];
      let dt = clock () - t0 in
      Atomic.set compile_ns dt;
      Atomic.incr compiles_c;
      ignore (Atomic.fetch_and_add compile_ms_c (dt / 1_000_000));
      Unix.rename out path)

(* Modules loaded by this process, by name: Dynlink refuses a unit name
   twice, and is not safe to enter from two domains at once. *)
let loaded : (string, entry array) Hashtbl.t = Hashtbl.create 16
let dl_mu = Mutex.create ()

(* A module this process already loaded costs nothing more: a
   specialisation that prints the same program promotes at once. *)
let cost st =
  let name, on_disk = artefact_of st in
  if Mutex.protect dl_mu (fun () -> Hashtbl.mem loaded name) then 0
  else Atomic.get (if on_disk then load_ns else compile_ns)

let load ~name path =
  Mutex.protect dl_mu (fun () ->
      match Hashtbl.find_opt loaded name with
      | Some f -> f
      | None ->
          let t0 = clock () in
          Dynlink.loadfile_private path;
          let f : entry array = Obj.obj (named_value name) in
          Atomic.set load_ns (clock () - t0);
          Hashtbl.add loaded name f;
          f)

(* Raised where the failure was recorded already (by [once]). *)
exception Recorded

let obtain st ~name =
  match Mutex.protect dl_mu (fun () -> Hashtbl.find_opt loaded name) with
  | Some f -> f
  | None ->
      let dir = match the_cache_dir () with Ok d -> d | Error _ -> raise Recorded in
      let path = artefact dir name in
      if Sys.file_exists path then Atomic.incr disk_hits_c
      else build st ~name dir path;
      load ~name path

let describe = function
  | Dynlink.Error e -> Dynlink.error_message e
  | Failure msg -> msg
  | Unix.Unix_error (e, f, a) -> Printf.sprintf "%s(%s): %s" f a (Unix.error_message e)
  | e -> Printexc.to_string e

let promote st =
  if Atomic.compare_and_set st.state Cold Promoting then begin
    let name = fst (artefact_of st) in
    match obtain st ~name with
    | f ->
        Atomic.set st.state (Promoted (Run f));
        Atomic.incr promotions_c
    | exception Recorded -> Atomic.set st.state Failed
    | exception e ->
        Atomic.set st.state Failed;
        fail (Printf.sprintf "%s: %s" name (describe e))
  end

let select st =
  match Atomic.get mode_a with
  | Off -> Interpret
  | m -> (
      match Atomic.get st.state with
      | Promoted v -> v
      | Failed | Promoting -> Interpret
      | Cold when not (available ()) -> Interpret
      | Cold -> (
          match m with
          | Force -> (
              promote st;
              match Atomic.get st.state with Promoted v -> v | _ -> Interpret)
          | Auto | Off -> Measure))

let charge st dt =
  let spent = Atomic.fetch_and_add st.cold_ns dt + dt in
  if spent >= Atomic.get load_ns && spent >= cost st then promote st
