(* The solve server.  Three lock domains, never held together except in
   the stated order:

     sched  — tenant queues, tickets, stop flag, coalesce table
     xmx    — the clean/faulted execution phase (reader-writer style)
     Session's internal lock (leaf; taken under sched in submit)

   Connection threads only touch sched + sessions; executor threads
   touch all three but take xmx only after releasing sched.  The parse
   cache has its own lock, a leaf taken with no other held. *)

open Sf_util
module Jit = Sf_backends.Jit
module Config = Sf_backends.Config
module Supervise = Sf_backends.Supervise
module Fault = Sf_resilience.Fault
module Guard = Sf_resilience.Guard
module Supervisor = Sf_resilience.Supervisor
module Gen = Sf_fuzz.Gen
module Corpus = Sf_fuzz.Corpus
module Trace = Sf_trace.Trace
module Metrics = Sf_trace.Metrics
module Json = Sf_trace.Json
module P = Protocol

type config = {
  threads : int;
  queue_cap : int;
  quota : Session.quota;
  backend : Jit.backend;
  workers : int;
  max_workers : int;
  max_reps : int;
  max_program_bytes : int;
  allow_faults : bool;
  allow_shutdown : bool;
}

let default_config =
  {
    threads = 2;
    queue_cap = 64;
    quota = Session.default_quota;
    backend = Jit.Openmp;
    workers = 1;
    (* the pool itself tops out at ~120 helper domains; anything above
       this is a hostile or broken client, not a plausible solve *)
    max_workers = 128;
    max_reps = 4096;
    max_program_bytes = 1024 * 1024;
    allow_faults = true;
    allow_shutdown = true;
  }

(* Parsed programs the server keeps (see [parse]). *)
let parse_capacity = 64

type job = {
  ticket : int;
  session : Session.t;
  spec : Gen.spec;
  jbackend : Jit.backend;
  jconfig : Config.t;
  reps : int;
  fault : string; (* "" = clean *)
  enqueued_us : float;
}

type ticket_state =
  | Queued of job
  | Running of job
  | Done of string * string  (* owner tenant, final reply frame *)

type t = {
  cfg : config;
  (* --- sched domain --- *)
  sched : Mutex.t;
  work : Condition.t;
  queues : (string, job Queue.t) Hashtbl.t;
  mutable rr : string list; (* round-robin tenant rotation *)
  tickets : (int, ticket_state) Hashtbl.t;
  orphaned : (int, unit) Hashtbl.t; (* running, but the submitter is gone *)
  mutable next_ticket : int;
  mutable queued : int;
  mutable stop_flag : bool;
  compiling : (string, unit) Hashtbl.t; (* in-flight compile keys *)
  compile_done : Condition.t;
  mutable listen_fd : Unix.file_descr option;
  (* --- execution-phase domain --- *)
  xmx : Mutex.t;
  xcv : Condition.t;
  mutable clean_active : int;
  mutable fault_active : bool;
  mutable fault_waiting : int;
  (* --- counters (sched) --- *)
  mutable n_busy : int;
  mutable n_coalesced : int;
  mutable executors : Thread.t list;
  alive : int Atomic.t; (* executor threads inside their loop *)
  started_us : float;
  (* --- parse cache: program text -> spec, FIFO-bounded --- *)
  parse_mx : Mutex.t;
  parsed : (string, Gen.spec) Hashtbl.t;
  parse_order : string Queue.t;
  (* --- SLO instruments --- *)
  lat_series : Metrics.series; (* admission -> reply ready, µs *)
  solve_series : Metrics.series; (* kernel run only, µs *)
  depth_gauge : Metrics.gauge;
}

let config t = t.cfg
let stopped t = Mutex.protect t.sched (fun () -> t.stop_flag)

(* ------------------------------------------------- verdict classifiers *)

let classifiers_registered = Atomic.make false

let register_classifiers () =
  if not (Atomic.exchange classifiers_registered true) then
    Supervisor.register_classifier (function
      | Jit.Certification_failed { backend; group; diagnostics } ->
          Some
            {
              Supervisor.code = P.err_certification;
              message =
                Printf.sprintf "%s/%s: %d diagnostic(s)" backend group
                  (List.length diagnostics);
              fatal = false;
            }
      | Fault.Injected { site; kind; detail } ->
          Some
            {
              Supervisor.code = P.err_fault;
              message =
                Printf.sprintf "injected %s at %s (%s)"
                  (Fault.kind_name kind) site detail;
              fatal = false;
            }
      | Guard.Tripped { grid; index; value } ->
          Some
            {
              Supervisor.code = P.err_guard;
              message =
                Printf.sprintf "non-finite %h in %s at flat index %d" value
                  grid index;
              fatal = false;
            }
      | _ -> None)

(* ------------------------------------------------------------ executors *)

(* Pick the next job in round-robin tenant order; caller holds sched. *)
let pick_job t =
  let rec go seen = function
    | [] -> None
    | tenant :: rest -> (
        match Hashtbl.find_opt t.queues tenant with
        | Some q when not (Queue.is_empty q) ->
            let job = Queue.pop q in
            t.rr <- List.rev_append seen (rest @ [ tenant ]);
            Some job
        | _ -> go (tenant :: seen) rest)
  in
  go [] t.rr

(* The RESULT frame, encoded once from the meshes' own storage; every
   grid in name order. *)
let result_frame ~ticket ~elapsed_us grids =
  P.encode_result ~ticket ~elapsed_us
    (List.map
       (fun name ->
         let m = Sf_mesh.Grids.find grids name in
         (name, Ivec.to_list (Sf_mesh.Mesh.shape m), Sf_mesh.Mesh.data m))
       (Sf_mesh.Grids.names grids))

(* Coalescing front: at most one in-flight lowering per structural cache
   key; latecomers wait, then take the Jit cache hit. *)
let coalesced_compile t ~key compile =
  let wait_or_claim () =
    Mutex.protect t.sched (fun () ->
        if Hashtbl.mem t.compiling key then begin
          t.n_coalesced <- t.n_coalesced + 1;
          while Hashtbl.mem t.compiling key do
            Condition.wait t.compile_done t.sched
          done
        end;
        Hashtbl.replace t.compiling key ())
  in
  wait_or_claim ();
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.sched (fun () ->
          Hashtbl.remove t.compiling key;
          Condition.broadcast t.compile_done))
    compile

(* Clean entry also yields to *waiting* faulted jobs, not just the
   active one: without that, continuous clean traffic keeps
   clean_active > 0 forever and a faulted job starves (classic
   reader-writer writer starvation). *)
let enter_clean t =
  Mutex.lock t.xmx;
  while t.fault_active || t.fault_waiting > 0 do
    Condition.wait t.xcv t.xmx
  done;
  t.clean_active <- t.clean_active + 1;
  Mutex.unlock t.xmx

let leave_clean t =
  Mutex.lock t.xmx;
  t.clean_active <- t.clean_active - 1;
  Condition.broadcast t.xcv;
  Mutex.unlock t.xmx

let enter_faulted t =
  Mutex.lock t.xmx;
  t.fault_waiting <- t.fault_waiting + 1;
  while t.fault_active || t.clean_active > 0 do
    Condition.wait t.xcv t.xmx
  done;
  t.fault_waiting <- t.fault_waiting - 1;
  t.fault_active <- true;
  Mutex.unlock t.xmx

let leave_faulted t =
  Mutex.lock t.xmx;
  t.fault_active <- false;
  Condition.broadcast t.xcv;
  Mutex.unlock t.xmx

let solve t job =
  let { spec; jbackend; jconfig; reps; _ } = job in
  let key =
    Jit.cache_key_hex ~config:jconfig ~reps jbackend ~shape:spec.Gen.shape
      spec.Gen.group
  in
  let kernel =
    coalesced_compile t ~key (fun () ->
        (* a faulted request runs unsupervised on purpose: an injected
           fault must reach the request boundary as an ERROR, not heal by
           failover *)
        if job.fault = "" && reps = 1 then
          Supervise.compile ~config:jconfig jbackend ~shape:spec.Gen.shape
            spec.Gen.group
        else
          Jit.compile ~config:jconfig ~reps jbackend ~shape:spec.Gen.shape
            spec.Gen.group)
  in
  let grids = Gen.build_grids spec in
  let t0 = Trace.now_us () in
  Fun.protect
    ~finally:(fun () -> Metrics.observe t.solve_series (Trace.now_us () -. t0))
    (fun () ->
      Trace.span Trace.Phase "serve.solve_us" (fun () ->
          kernel.Sf_backends.Kernel.run ~params:spec.Gen.params grids));
  Guard.scan_grids ~mode:Guard.Sample grids (Sf_mesh.Grids.names grids);
  grids

let execute t job =
  let enter, leave =
    if job.fault = "" then (enter_clean, leave_clean)
    else (enter_faulted, leave_faulted)
  in
  enter t;
  Fun.protect
    ~finally:(fun () -> leave t)
    (fun () ->
      Supervisor.protect
        ~label:(Printf.sprintf "req%d" job.ticket)
        (fun () ->
          if job.fault <> "" then begin
            Fault.arm_exn job.fault;
            Fun.protect
              ~finally:(fun () -> Fault.disarm ())
              (fun () -> solve t job)
          end
          else solve t job))

(* Requests that raised past [Supervisor.protect]: the fatal exceptions it
   never absorbs. *)
let fatal_c = Metrics.counter "serve.executor.fatal"

let run_job t job =
  let outcome =
    (* the executor boundary: whatever a solve raises fails its request,
       never the executor thread *)
    match execute t job with
    | outcome -> outcome
    | exception e ->
        Atomic.incr fatal_c;
        Error (Supervisor.verdict_of_exn e)
  in
  let elapsed = Trace.now_us () -. job.enqueued_us in
  Metrics.observe t.lat_series elapsed;
  Session.finish job.session;
  let rejected code message =
    Session.note_errored job.session;
    P.encode_reply (P.Rejected { ticket = job.ticket; code; message })
  in
  let frame =
    match outcome with
    | Ok grids -> (
        match result_frame ~ticket:job.ticket ~elapsed_us:elapsed grids with
        | frame ->
            Session.note_completed job.session;
            frame
        (* a grid too large for the frame's u32 fields fails this
           request, not the executor thread *)
        | exception Invalid_argument m -> rejected P.err_internal m)
    | Error (v : Supervisor.verdict) -> rejected v.code v.message
  in
  Mutex.protect t.sched (fun () ->
      if Hashtbl.mem t.orphaned job.ticket then begin
        (* the submitting connection died mid-solve; nobody can ever
           poll this reply — drop it instead of holding the grids *)
        Hashtbl.remove t.orphaned job.ticket;
        Hashtbl.remove t.tickets job.ticket
      end
      else
        Hashtbl.replace t.tickets job.ticket
          (Done (Session.tenant job.session, frame)))

(* A connection died with tickets outstanding: free what nobody will
   ever poll.  Done replies are dropped now, queued jobs are cancelled
   before they waste an executor, running jobs are marked so [run_job]
   drops their reply on completion. *)
let release_tickets t tickets =
  if Hashtbl.length tickets > 0 then
    Mutex.protect t.sched (fun () ->
        Hashtbl.iter
          (fun ticket () ->
            match Hashtbl.find_opt t.tickets ticket with
            | None -> ()
            | Some (Done _) -> Hashtbl.remove t.tickets ticket
            | Some (Running _) -> Hashtbl.replace t.orphaned ticket ()
            | Some (Queued job) ->
                (match
                   Hashtbl.find_opt t.queues (Session.tenant job.session)
                 with
                | None -> ()
                | Some q ->
                    let keep =
                      Queue.fold
                        (fun acc j ->
                          if j.ticket = ticket then acc else j :: acc)
                        [] q
                    in
                    Queue.clear q;
                    List.iter (fun j -> Queue.push j q) (List.rev keep));
                t.queued <- t.queued - 1;
                Metrics.gauge_set t.depth_gauge t.queued;
                Session.finish job.session;
                Hashtbl.remove t.tickets ticket)
          tickets)

let pick_is_empty t =
  List.for_all
    (fun tenant ->
      match Hashtbl.find_opt t.queues tenant with
      | Some q -> Queue.is_empty q
      | None -> true)
    t.rr

let executor t () =
  let rec loop () =
    Mutex.lock t.sched;
    while (not t.stop_flag) && pick_is_empty t do
      Condition.wait t.work t.sched
    done;
    if t.stop_flag then Mutex.unlock t.sched
    else
      match pick_job t with
      | None ->
          Mutex.unlock t.sched;
          loop ()
      | Some job ->
          t.queued <- t.queued - 1;
          Metrics.gauge_set t.depth_gauge t.queued;
          Hashtbl.replace t.tickets job.ticket (Running job);
          Mutex.unlock t.sched;
          run_job t job;
          loop ()
  in
  Atomic.incr t.alive;
  Fun.protect ~finally:(fun () -> Atomic.decr t.alive) loop

(* ------------------------------------------------------------- creation *)

let create ?(config = default_config) () =
  register_classifiers ();
  (* a reply racing a client hang-up must surface as EPIPE
     (-> Protocol.Closed, connection death), never as a SIGPIPE that
     takes the whole daemon down *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t =
    {
      cfg = config;
      sched = Mutex.create ();
      work = Condition.create ();
      queues = Hashtbl.create 8;
      rr = [];
      tickets = Hashtbl.create 64;
      orphaned = Hashtbl.create 8;
      next_ticket = 1;
      queued = 0;
      stop_flag = false;
      compiling = Hashtbl.create 8;
      compile_done = Condition.create ();
      listen_fd = None;
      xmx = Mutex.create ();
      xcv = Condition.create ();
      clean_active = 0;
      fault_active = false;
      fault_waiting = 0;
      n_busy = 0;
      n_coalesced = 0;
      executors = [];
      alive = Atomic.make 0;
      parse_mx = Mutex.create ();
      parsed = Hashtbl.create parse_capacity;
      parse_order = Queue.create ();
      started_us = Trace.now_us ();
      lat_series = Metrics.series "serve.request_us";
      solve_series = Metrics.series "serve.solve_us";
      depth_gauge = Metrics.gauge "serve.queue_depth";
    }
  in
  let n = max 1 config.threads in
  t.executors <- List.init n (fun _ -> Thread.create (executor t) ());
  t

let stop t =
  let fd =
    Mutex.protect t.sched (fun () ->
        t.stop_flag <- true;
        (* executors will never pick these up once stop_flag is set:
           give every queued ticket a terminal reply instead of
           silently dropping work that was already Accepted *)
        Hashtbl.iter
          (fun _ q ->
            Queue.iter
              (fun job ->
                Session.finish job.session;
                Hashtbl.replace t.tickets job.ticket
                  (Done
                     ( Session.tenant job.session,
                       P.encode_reply
                         (P.Rejected
                            {
                              ticket = job.ticket;
                              code = P.err_proto;
                              message = "server shutting down";
                            }) )))
              q;
            Queue.clear q)
          t.queues;
        t.queued <- 0;
        Metrics.gauge_set t.depth_gauge 0;
        Condition.broadcast t.work;
        Condition.broadcast t.compile_done;
        let fd = t.listen_fd in
        t.listen_fd <- None;
        fd)
  in
  Mutex.protect t.xmx (fun () -> Condition.broadcast t.xcv);
  (* shutdown() (not just close) — a thread blocked in accept() on this
     socket only wakes when the socket itself is shut down. *)
  Option.iter
    (fun fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    fd

let join t = List.iter Thread.join t.executors

(* ------------------------------------------------------------ admission *)

let resolve_backend t = function
  | "" -> Ok t.cfg.backend
  | name -> (
      match Jit.backend_of_string name with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "unknown backend %S" name))

let reject ?(ticket = 0) code message = P.Rejected { ticket; code; message }

(* A program text parses to the same spec every time: keep the last
   [parse_capacity] that parsed, keyed by the exact text, and share each
   spec read-only.  A text that fails to parse is never kept. *)
let parse_hits = Metrics.counter "serve.parse.hits"
let parse_misses = Metrics.counter "serve.parse.misses"

let parse t program =
  let kept =
    Mutex.protect t.parse_mx (fun () -> Hashtbl.find_opt t.parsed program)
  in
  match kept with
  | Some spec ->
      Atomic.incr parse_hits;
      Ok spec
  | None ->
      Atomic.incr parse_misses;
      let r = Corpus.of_string ~label:"served" program in
      Result.iter
        (fun spec ->
          Mutex.protect t.parse_mx (fun () ->
              if not (Hashtbl.mem t.parsed program) then begin
                if Queue.length t.parse_order >= parse_capacity then
                  Hashtbl.remove t.parsed (Queue.pop t.parse_order);
                Hashtbl.add t.parsed program spec;
                Queue.push program t.parse_order
              end))
        r;
      r

let parse_cache_entries t =
  Mutex.protect t.parse_mx (fun () -> Hashtbl.length t.parsed)

let handle_submit t session (s : P.submit) =
  (* workers/reps arrive as raw u32s (up to 0xFFFFFFFF) and flow toward
     the pool and the time-tiled JIT: bound them *before* anything is
     parsed, compiled or charged against a quota.  0 means "server
     default" for both. *)
  if s.P.workers > t.cfg.max_workers then
    reject P.err_parse
      (Printf.sprintf "SUBMIT.workers: %d exceeds limit %d" s.P.workers
         t.cfg.max_workers)
  else if s.P.reps > t.cfg.max_reps then
    reject P.err_parse
      (Printf.sprintf "SUBMIT.reps: %d exceeds limit %d" s.P.reps
         t.cfg.max_reps)
  else if String.length s.P.program > t.cfg.max_program_bytes then
    reject P.err_too_large
      (Printf.sprintf "program of %d bytes exceeds limit %d"
         (String.length s.P.program) t.cfg.max_program_bytes)
  else
    match parse t s.P.program with
    | Error m -> reject P.err_parse m
    | Ok spec -> (
        match resolve_backend t s.P.backend with
        | Error m -> reject P.err_parse m
        | Ok jbackend -> (
            let fault_check =
              if s.P.fault = "" then Ok ()
              else
                match Fault.parse s.P.fault with
                | Ok _ -> Ok ()
                | Error m -> Error m
            in
            match fault_check with
            | Error m -> reject P.err_parse ("fault spec: " ^ m)
            | Ok () ->
                let reps = max 1 s.P.reps in
                let workers =
                  if s.P.workers > 0 then s.P.workers else t.cfg.workers
                in
                let jconfig = { Config.default with Config.workers } in
                let cells = Ivec.product spec.Gen.shape * reps in
                (* every declared grid is built by the executor, touched
                   or not: bound them here, before anything allocates *)
                let grid_cells = Gen.grid_cells spec in
                let tenant = Session.tenant session in
                Mutex.protect t.sched (fun () ->
                    if t.stop_flag then
                      reject P.err_proto "server shutting down"
                    else if t.queued >= t.cfg.queue_cap then begin
                      t.n_busy <- t.n_busy + 1;
                      P.Busy { queue_depth = t.queued }
                    end
                    else
                      match Session.admit session ~cells ~grid_cells with
                      | Error (code, m) -> reject code m
                      | Ok () ->
                          let ticket = t.next_ticket in
                          t.next_ticket <- ticket + 1;
                          let job =
                            {
                              ticket;
                              session;
                              spec;
                              jbackend;
                              jconfig;
                              reps;
                              fault = s.P.fault;
                              enqueued_us = Trace.now_us ();
                            }
                          in
                          let q =
                            match Hashtbl.find_opt t.queues tenant with
                            | Some q -> q
                            | None ->
                                let q = Queue.create () in
                                Hashtbl.add t.queues tenant q;
                                t.rr <- t.rr @ [ tenant ];
                                q
                          in
                          Queue.push job q;
                          t.queued <- t.queued + 1;
                          Metrics.gauge_set t.depth_gauge t.queued;
                          Hashtbl.replace t.tickets ticket (Queued job);
                          Condition.signal t.work;
                          P.Accepted { ticket })))

(* What a POLL answers: a reply to encode, or a finished ticket's frame,
   which its executor already encoded. *)
type poll_answer = Reply of P.reply | Final of string

let handle_poll t tenant ticket =
  Mutex.protect t.sched (fun () ->
      match Hashtbl.find_opt t.tickets ticket with
      | None ->
          Reply (reject P.err_proto (Printf.sprintf "unknown ticket %d" ticket))
      | Some st -> (
          let owner =
            match st with
            | Queued j | Running j -> Session.tenant j.session
            | Done (owner, _) -> owner
          in
          if owner <> tenant then
            Reply
              (reject P.err_proto
                 (Printf.sprintf "ticket %d is not yours" ticket))
          else
            match st with
            | Queued _ -> Reply (P.Pending { ticket; running = false })
            | Running _ -> Reply (P.Pending { ticket; running = true })
            | Done (_, frame) ->
                Hashtbl.remove t.tickets ticket;
                Final frame))

(* ---------------------------------------------------------------- stats *)

let stats_json t =
  let num i = Json.Num (float_of_int i) in
  let snap = Metrics.snapshot () in
  let count name =
    Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters)
  in
  let hits = count "jit.hits" and misses = count "jit.misses" in
  let hit_rate =
    if hits + misses = 0 then 0.
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let busy, coalesced, depth, tickets =
    Mutex.protect t.sched (fun () ->
        (t.n_busy, t.n_coalesced, t.queued, Hashtbl.length t.tickets))
  in
  let series =
    List.map
      (fun (s : Metrics.summary) ->
        Json.Obj
          [
            ("name", Json.Str s.Metrics.sname);
            ("n", num s.Metrics.n);
            ("p50_us", Json.Num s.Metrics.p50);
            ("p90_us", Json.Num s.Metrics.p90);
            ("p99_us", Json.Num s.Metrics.p99);
            ("max_us", Json.Num s.Metrics.smax);
            ("mean_us", Json.Num s.Metrics.smean);
          ])
      snap.Metrics.series
  in
  let tenants =
    List.map
      (fun (s : Session.stats) ->
        Json.Obj
          [
            ("tenant", Json.Str s.Session.s_tenant);
            ("inflight", num s.Session.s_inflight);
            ("submitted", num s.Session.s_submitted);
            ("completed", num s.Session.s_completed);
            ("errored", num s.Session.s_errored);
            ("rejected", num s.Session.s_rejected);
            ("cells_used", num s.Session.s_cells_used);
          ])
      (Session.all_stats ())
  in
  Json.to_string
    (Json.Obj
       [
         ("server", Json.Str "sfserved");
         ("protocol", num P.version);
         ("uptime_us", Json.Num (Trace.now_us () -. t.started_us));
         ("busy_rejections", num busy);
         ("coalesced_compiles", num coalesced);
         ( "executors",
           Json.Obj
             [
               ("threads", num (List.length t.executors));
               ("alive", num (Atomic.get t.alive));
             ] );
         ( "jit",
           Json.Obj
             [
               ("hits", num hits);
               ("misses", num misses);
               ("hit_rate", Json.Num hit_rate);
             ] );
         ( "native",
           Json.Obj
             (List.filter_map
                (fun (k, v) ->
                  if String.starts_with ~prefix:"native." k then Some (k, num v)
                  else None)
                snap.Metrics.counters) );
         ( "queue",
           Json.Obj
             [
               ("depth", num depth);
               ( "hwm",
                 num
                   (match List.assoc_opt "serve.queue_depth" snap.Metrics.gauges
                    with
                   | Some g -> g.Metrics.hwm
                   | None -> 0) );
               ("tickets", num tickets);
             ] );
         ("counters", Metrics.counters_json snap);
         ("series", Json.Arr series);
         ("tenants", Json.Arr tenants);
       ])

(* ----------------------------------------------------------- connections *)

let granted_caps t requested =
  let mask = ref (P.cap_submit lor P.cap_poll lor P.cap_stats lor P.cap_coalesce) in
  if t.cfg.allow_faults then mask := !mask lor P.cap_faults;
  if t.cfg.allow_shutdown then mask := !mask lor P.cap_shutdown;
  requested land !mask

let serve_pair t in_fd out_fd =
  let send r = P.write_reply out_fd r in
  (* tickets this connection created and has not yet claimed; reaped on
     disconnect so an abandoned Done reply (holding full result grids)
     cannot accumulate in a long-lived daemon *)
  let conn_tickets = Hashtbl.create 8 in
  let serve () =
    match P.read_request in_fd with
    | Ok (Some (P.Hello { version; tenant; caps }))
      when version = P.version && tenant <> "" ->
        let granted = granted_caps t caps in
        send
          (P.Welcome
             { version = P.version; caps = granted; server = "sfserved/1" });
        let session = Session.find_or_create ~quota:t.cfg.quota tenant in
        let has c = granted land c <> 0 in
        let rec loop () =
          match P.read_request in_fd with
          | Ok None -> ()
          | Error m -> send (reject P.err_proto m)
          | Ok (Some req) -> (
              match req with
              | P.Hello _ ->
                  send (reject P.err_proto "duplicate HELLO");
                  loop ()
              | P.Submit _ when not (has P.cap_submit) ->
                  send (reject P.err_proto "submit capability not granted");
                  loop ()
              | P.Submit s when s.P.fault <> "" && not (has P.cap_faults) ->
                  send (reject P.err_proto "faults capability not granted");
                  loop ()
              | P.Submit s ->
                  let r = handle_submit t session s in
                  (match r with
                  | P.Accepted { ticket } ->
                      Hashtbl.replace conn_tickets ticket ()
                  | _ -> ());
                  send r;
                  loop ()
              | P.Poll { ticket } when has P.cap_poll ->
                  (match handle_poll t tenant ticket with
                  | Final frame ->
                      Hashtbl.remove conn_tickets ticket;
                      P.write_frame out_fd frame
                  | Reply r -> send r);
                  loop ()
              | P.Poll _ ->
                  send (reject P.err_proto "poll capability not granted");
                  loop ()
              | P.Stats when has P.cap_stats ->
                  send (P.Stats_reply { json = stats_json t });
                  loop ()
              | P.Stats ->
                  send (reject P.err_proto "stats capability not granted");
                  loop ()
              | P.Shutdown when has P.cap_shutdown ->
                  send P.Bye;
                  stop t
              | P.Shutdown ->
                  send (reject P.err_proto "shutdown capability not granted");
                  loop ())
        in
        loop ()
    | Ok (Some (P.Hello { version; _ })) when version <> P.version ->
        send
          (reject P.err_proto
             (Printf.sprintf "protocol version %d, server speaks %d" version
                P.version))
    | Ok (Some (P.Hello _)) -> send (reject P.err_proto "empty tenant name")
    | Ok (Some _) -> send (reject P.err_proto "first message must be HELLO")
    | Ok None -> ()
    | Error m -> ( try send (reject P.err_proto m) with _ -> ())
  in
  Fun.protect
    ~finally:(fun () -> release_tickets t conn_tickets)
    (fun () -> try serve () with P.Closed -> ())

let serve_fd t fd = serve_pair t fd fd

let listen_unix t ~path =
  (match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      (* unlink only a *stale* socket: clobbering a live one would
         silently sever a running daemon's listener *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        Fun.protect
          ~finally:(fun () ->
            try Unix.close probe with Unix.Unix_error _ -> ())
          (fun () ->
            match Unix.connect probe (Unix.ADDR_UNIX path) with
            | () -> true
            | exception
                Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
                false)
      in
      if live then
        failwith
          (Printf.sprintf "socket %s: a server is already listening" path)
      else Unix.unlink path
  | _ -> failwith (Printf.sprintf "refusing to unlink %s: not a socket" path));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  Mutex.protect t.sched (fun () -> t.listen_fd <- Some fd);
  let rec accept_loop () =
    match Unix.accept fd with
    | conn, _ ->
        ignore
          (Thread.create
             (fun () ->
               Fun.protect
                 ~finally:(fun () ->
                   try Unix.close conn with Unix.Unix_error _ -> ())
                 (fun () -> try serve_fd t conn with _ -> ()))
             ());
        if not (stopped t) then accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error _ ->
        (* stop() closed the listening socket under us *)
        ()
  in
  accept_loop ();
  Mutex.protect t.sched (fun () ->
      match t.listen_fd with
      | Some fd ->
          t.listen_fd <- None;
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
  if Sys.file_exists path then try Unix.unlink path with Sys_error _ -> ()
