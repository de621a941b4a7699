(* Workloads serve_smooth_16 and serve_fresh: a real sfserved child on a
   Unix socket inside the checkout, driven closed loop by two tenants
   (one thread and one outstanding solve each). *)

open Common
module P = Sf_serve.Protocol
module Client = Sf_serve.Client
module Gen = Sf_fuzz.Gen
module Corpus = Sf_fuzz.Corpus
module Jit = Sf_backends.Jit
module Config = Sf_backends.Config

let poll_interval_s = 0.002

(* With repeated identical requests, each tenant waits a seeded uniform
   [0, think_max_s) before every request.  Without it the two closed
   loops phase-lock against the server and the 2 ms poll, and each run
   settles into one interleaving: pinned to one CPU, run medians spread
   20 % instead of 5 %.  Fresh programs differ in cost, which breaks the
   lock by itself; there the wait only adds wake-up noise (throughput
   spread 13 % instead of 2 %), so serve_fresh runs without it. *)
let think_max_s = 0.002

let tenants = [ "alice"; "bob" ]

(* ----------------------------------------------------------------- inputs *)

(* The VC GSRB smoother on (n+2)^3 grids whose contents come from [seed]. *)
let smoother_spec ~n ~seed : Gen.spec =
  let group = Sf_hpgmg.Operators.gsrb_smooth in
  let shape = [| n + 2; n + 2; n + 2 |] in
  {
    Gen.label = "smooth";
    seed;
    shape;
    group;
    grids =
      List.mapi
        (fun i gname -> { Gen.gname; gshape = shape; gseed = (abs seed * 64) + i })
        (Snowflake.Group.grids group);
    params = [ ("inv_h2", float_of_int (n * n)) ];
  }

let serve_config = { Config.default with Config.workers = 1 }

(* The spec exactly as the server sees it: parsed from the wire text. *)
let parse text =
  match Corpus.of_string ~label:"served" text with
  | Ok spec -> spec
  | Error e -> failwith ("perfbench: generated program does not parse: " ^ e)

(* [count] generated programs with pairwise distinct JIT cache keys, from
   seeds derived from [seed] and [stream] (so workloads and the layer
   probes never share programs).  Returns the wire texts. *)
let fresh_programs ~seed ~stream ~count =
  let seen = Hashtbl.create count in
  let base = ((abs seed mod 100_000) * 1_000_000) + (stream * 100_000) in
  let rec go i acc k =
    if k = count then Array.of_list (List.rev acc)
    else
      let text = Corpus.to_string (Gen.spec ~seed:(base + i) ()) in
      let spec = parse text in
      let key =
        Jit.cache_key_hex ~config:serve_config Jit.Openmp ~shape:spec.Gen.shape
          spec.Gen.group
      in
      if Hashtbl.mem seen key then go (i + 1) acc k
      else begin
        Hashtbl.add seen key ();
        go (i + 1) (text :: acc) (k + 1)
      end
  in
  go 0 [] 0

let submit_of ?(fault = "") program =
  { P.program; backend = ""; workers = 0; reps = 1; fault }

(* What sfserved should reply, recomputed in process: parse, compile with
   the server's backend at one worker, build the grids, run.  [perturb]
   flips the low bit of one output value (the smoke test's proof that the
   check bites). *)
let reference ?(perturb = false) text =
  let spec = parse text in
  let k = Jit.compile ~config:serve_config Jit.Openmp ~shape:spec.Gen.shape spec.Gen.group in
  let grids = Gen.build_grids spec in
  k.Sf_backends.Kernel.run ~params:spec.Gen.params grids;
  let r = reference_of_grids grids in
  (if perturb then
     let _, _, data = List.hd r in
     let bits = Int64.bits_of_float (Float.Array.get data 0) in
     Float.Array.set data 0 (Int64.float_of_bits (Int64.logxor bits 1L)));
  r

(* References for programs [lo, hi), computed before the ops that need
   them so that the timed phase only compares.  The local JIT cache is
   emptied every 256 programs to keep this process small. *)
let references ?perturb ~programs ~lo ~hi () =
  let refs = Hashtbl.create (hi - lo) in
  for prog = lo to hi - 1 do
    if (prog - lo) mod 256 = 255 then Jit.clear_cache ();
    Hashtbl.replace refs prog (reference ?perturb programs.(prog))
  done;
  Jit.clear_cache ();
  refs

(* ----------------------------------------------------------------- server *)

type server = { pid : int; socket : string; clients : Client.t list }

let spawn_count = ref 0

(* Spawn sfserved with its default flags and connect every tenant. *)
let start ~sfserved =
  ensure_out_dir ();
  incr spawn_count;
  let socket =
    Printf.sprintf "%s/sf-%d-%d.sock" out_dir (Unix.getpid ()) !spawn_count
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let pid =
    Unix.create_process_env sfserved
      [| sfserved; "--socket"; socket |]
      (clean_env ()) Unix.stdin Unix.stderr Unix.stderr
  in
  add_child pid;
  let deadline = now () +. 20. in
  let rec connect tenant =
    match Client.connect_unix ~tenant socket with
    | Ok c -> c
    | Error e ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "perfbench: sfserved exited during start-up");
        if now () > deadline then failwith ("perfbench: cannot reach sfserved: " ^ e);
        Unix.sleepf 0.0005;
        connect tenant
  in
  { pid; socket; clients = List.map connect tenants }

let stop srv =
  (match Client.shutdown (List.hd srv.clients) with
  | Ok () -> ()
  | Error e -> Printf.eprintf "perfbench: SHUTDOWN: %s\n%!" e);
  List.iter Client.close srv.clients;
  let deadline = now () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        Unix.kill srv.pid Sys.sigkill;
        ignore (Unix.waitpid [] srv.pid)
    | _ -> ()
  in
  reap ();
  remove_child srv.pid;
  try Sys.remove srv.socket with Sys_error _ -> ()

let stats_json c =
  match Client.stats c with
  | Ok s -> (
      match Json.of_string s with
      | Ok j -> j
      | Error e -> failwith ("perfbench: STATS is not JSON: " ^ e))
  | Error e -> failwith ("perfbench: STATS: " ^ e)

let rec json_path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun v -> json_path v rest)

let json_num j path =
  match json_path j path with
  | Some (Json.Num v) -> v
  | _ -> failwith ("perfbench: STATS lacks " ^ String.concat "." path)

(* p50 of a named latency series in STATS. *)
let series_p50 j name =
  match Json.member "series" j with
  | Some (Json.Arr l) -> (
      match List.find_opt (fun s -> Json.member "name" s = Some (Json.Str name)) l with
      | Some s -> json_num s [ "p50_us" ]
      | None -> failwith ("perfbench: STATS has no series " ^ name))
  | _ -> failwith "perfbench: STATS has no series"

(* ------------------------------------------------------------- solving *)

type probe = { mutable submit_s : float list; mutable polls : int list }

let new_probe () = { submit_s = []; polls = [] }

(* [Client.solve] spelled out over [Client.submit]/[Client.poll] with the
   same poll interval, so the traced run can span each call and count
   polls. *)
let traced_solve ?probe ~op c sub =
  let polls = ref 0 in
  let finish r =
    Option.iter (fun p -> p.polls <- !polls :: p.polls) probe;
    r
  in
  let rec submit () =
    let r, dt = time (fun () -> Spans.span ~parent:op "Client.submit" (fun _ -> Client.submit c sub)) in
    Option.iter (fun p -> p.submit_s <- dt :: p.submit_s) probe;
    match r with
    | Ok (P.Accepted { ticket }) -> wait ticket
    | Ok (P.Busy _) ->
        Unix.sleepf poll_interval_s;
        submit ()
    | Ok (P.Rejected { code; message; _ }) -> finish (Ok (Client.Failed { code; message }))
    | Ok _ -> finish (Error "submit: unexpected reply")
    | Error _ as e -> finish e
  and wait ticket =
    incr polls;
    match Spans.span ~parent:op "Client.poll" (fun _ -> Client.poll c ticket) with
    | Ok (P.Pending _) ->
        Unix.sleepf poll_interval_s;
        wait ticket
    | Ok (P.Result { elapsed_us; grids; _ }) -> finish (Ok (Client.Solved { elapsed_us; grids }))
    | Ok (P.Rejected { code; message; _ }) -> finish (Ok (Client.Failed { code; message }))
    | Ok _ -> finish (Error "poll: unexpected reply")
    | Error _ as e -> finish e
  in
  submit ()

(* One op: its latency, and whether the reply matched its reference.  A
   request that failed (ERROR/REJECTED) or broke the transport does not
   match.  [check_s] is the time the comparison took, outside [lat]. *)
type op = { prog : int; start : float; lat : float; ok : bool; check_s : float; broken : bool }

let solve_op ~traced ~refs c ~prog sub =
  Spans.span "op" (fun op ->
      let t0 = now () in
      let r =
        if traced then traced_solve ~op c sub
        else Client.solve ~poll_interval_s c sub
      in
      let t1 = now () in
      let lat = t1 -. t0 in
      match r with
      | Ok (Client.Solved { grids; _ }) ->
          let ok = matches (Hashtbl.find refs prog) grids in
          { prog; start = t0; lat; ok; check_s = now () -. t1; broken = false }
      | Ok (Client.Failed { code; message }) ->
          Printf.eprintf "perfbench: program %d failed: %s %s\n%!" prog code message;
          { prog; start = t0; lat; ok = false; check_s = 0.; broken = false }
      | Error e ->
          Printf.eprintf "perfbench: transport broke: %s\n%!" e;
          { prog; start = t0; lat; ok = false; check_s = 0.; broken = true })

(* Closed loop: each tenant thread takes the next program index from
   [next] until it returns [None]; a broken transport ends that tenant.
   Before each request a tenant waits a seeded uniform [0, think_s).  The
   ops whose sequence number (drawn from [seq]) satisfies [fault_at]
   carry a [kernel:raise] fault.  Each reply is compared with its entry
   in [refs]. *)
let run_closed_loop ~traced ?(fault_at = fun _ -> false) ~think_s ~seq ~seed srv ~programs ~refs ~next =
  let results = Array.make (List.length srv.clients) [] in
  let tenant k c () =
    let rng = Random.State.make [| seed; k |] in
    let rec loop acc =
      match next () with
      | None -> acc
      | Some prog ->
          if think_s > 0. then Unix.sleepf (Random.State.float rng think_s);
          let fault = if fault_at (Atomic.fetch_and_add seq 1) then "kernel:raise" else "" in
          let o = solve_op ~traced ~refs c ~prog (submit_of ~fault programs.(prog)) in
          if o.broken then o :: acc else loop (o :: acc)
    in
    results.(k) <- loop []
  in
  let t0 = now () in
  let threads = List.mapi (fun k c -> Thread.create (tenant k c) ()) srv.clients in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  let ops = Array.to_list results |> List.concat in
  (List.sort (fun a b -> Float.compare a.start b.start) ops, wall)

(* Every op of [program] for [seconds]. *)
let repeat_until ~seconds =
  let deadline = now () +. seconds in
  fun () -> if now () < deadline then Some 0 else None

(* Programs [lo, hi) once each, shared between the tenants. *)
let each_once ~lo ~hi =
  let mx = Mutex.create () and cur = ref lo in
  fun () ->
    Mutex.protect mx (fun () ->
        if !cur >= hi then None
        else begin
          let i = !cur in
          incr cur;
          Some i
        end)

(* Ops whose reply is missing or differs from its reference. *)
let count_wrong ops = List.length (List.filter (fun o -> not o.ok) ops)
