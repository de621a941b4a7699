(* sfserved: the long-lived multi-tenant solve daemon.

   Speaks the versioned binary protocol of Sf_serve.Protocol over a
   Unix-domain socket (--socket PATH, thread per connection) or over
   stdin/stdout (--stdio, one connection — inetd style).  The process
   keeps the Jit compile cache and the worker pool warm across requests:
   the first solve of a (group, shape, backend, config) pays the
   lowering, every later one — from any tenant — replays the cached
   kernel, and concurrent identical compiles coalesce into one.

   Per-tenant quotas (--max-inflight/--max-cells/--cell-budget) bound
   each tenant; the bounded queue (--queue) answers BUSY past capacity.
   On shutdown (SHUTDOWN request or SIGINT/SIGTERM) running solves
   finish and deliver, still-queued tickets get a terminal
   "server shutting down" ERROR, the STATS document goes to --stats-json
   if given, and the process exits 0.  docs/SERVING.md documents the
   wire format and the STATS fields. *)

open Cmdliner
module Server = Sf_serve.Server
module Session = Sf_serve.Session

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on a Unix-domain socket at $(docv).")

let stdio_arg =
  Arg.(
    value & flag
    & info [ "stdio" ]
        ~doc:"Serve exactly one connection over stdin/stdout, then exit.")

let threads_arg =
  Arg.(
    value & opt int 2
    & info [ "threads" ] ~doc:"Executor threads draining the request queue.")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ]
        ~doc:"Default pool workers per solve (a SUBMIT may override).")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~doc:"Queued-request ceiling before BUSY backpressure.")

let max_inflight_arg =
  Arg.(
    value & opt int 8
    & info [ "max-inflight" ] ~doc:"Per-tenant concurrent request quota.")

let max_cells_arg =
  Arg.(
    value
    & opt int (16 * 1024 * 1024)
    & info [ "max-cells" ]
        ~doc:
          "Per-request cell ceiling, for shape x reps and for the cells of \
           the program's declared grids.")

let cell_budget_arg =
  Arg.(
    value & opt int 0
    & info [ "cell-budget" ]
        ~doc:"Cumulative per-tenant cell budget; 0 = unmetered.")

let backend_arg =
  Arg.(
    value & opt string "openmp"
    & info [ "backend" ]
        ~doc:"Default backend: interp | compiled | openmp | opencl.")

let no_faults_arg =
  Arg.(
    value & flag
    & info [ "no-faults" ]
        ~doc:"Refuse the faults capability (fault-carrying SUBMITs).")

let no_shutdown_arg =
  Arg.(
    value & flag
    & info [ "no-shutdown" ] ~doc:"Refuse the shutdown capability.")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"PATH"
        ~doc:"Write the final STATS document to $(docv) at exit.")

let run socket stdio threads workers queue max_inflight max_cells cell_budget
    backend no_faults no_shutdown stats_json =
  let backend =
    match Sf_backends.Jit.backend_of_string backend with
    | Some b -> b
    | None ->
        Printf.eprintf "sfserved: unknown backend %S\n" backend;
        exit 2
  in
  let config =
    {
      Server.threads;
      queue_cap = queue;
      quota =
        {
          Session.max_inflight;
          max_cells;
          cell_budget = (if cell_budget <= 0 then max_int else cell_budget);
        };
      backend;
      workers;
      max_workers = Server.default_config.Server.max_workers;
      max_reps = Server.default_config.Server.max_reps;
      max_program_bytes = 1024 * 1024;
      allow_faults = not no_faults;
      allow_shutdown = not no_shutdown;
    }
  in
  let t = Server.create ~config () in
  let finish () =
    Server.stop t;
    Server.join t;
    (match stats_json with
    | None -> ()
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Server.stats_json t);
            output_char oc '\n'));
    exit 0
  in
  List.iter
    (fun signal ->
      try Sys.set_signal signal (Sys.Signal_handle (fun _ -> finish ()))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  (match (socket, stdio) with
  | Some path, false -> (
      try Server.listen_unix t ~path
      with Failure m ->
        Printf.eprintf "sfserved: %s\n" m;
        exit 1)
  | None, true -> Server.serve_pair t Unix.stdin Unix.stdout
  | Some _, true ->
      Printf.eprintf "sfserved: --socket and --stdio are exclusive\n";
      exit 2
  | None, false ->
      Printf.eprintf "sfserved: pass --socket PATH or --stdio\n";
      exit 2);
  finish ()

let cmd =
  Cmd.v
    (Cmd.info "sfserved" ~doc:"Long-lived multi-tenant stencil solve server")
    Term.(
      const run $ socket_arg $ stdio_arg $ threads_arg $ workers_arg
      $ queue_arg $ max_inflight_arg $ max_cells_arg $ cell_budget_arg
      $ backend_arg $ no_faults_arg $ no_shutdown_arg $ stats_json_arg)

let () = exit (Cmd.eval cmd)
