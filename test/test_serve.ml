(* sf_serve unit tests: protocol goldens and round-trips, malformed-frame
   behaviour, quotas, BUSY backpressure, standalone-vs-server bitwise
   identity — all against an in-process server over a socketpair — plus
   the two concurrency regressions this PR pins: the Pool at_exit
   self-join hang and torn concurrent Autotune DB writes.

   A hard watchdog makes the suite timeout-proof: every past hang mode
   here (protocol deadlock, pool self-join) presents as "never returns",
   which must fail the build, not wedge it. *)

module P = Sf_serve.Protocol
module Server = Sf_serve.Server
module Session = Sf_serve.Session
module Client = Sf_serve.Client
module Gen = Sf_fuzz.Gen
module Corpus = Sf_fuzz.Corpus
module Jit = Sf_backends.Jit
module Config = Sf_backends.Config
module Autotune = Sf_backends.Autotune
open Sf_util

let () =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 60.;
         prerr_endline "test_serve: 60s watchdog expired — suite hung";
         exit 2)
       ())

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let unhex s =
  String.init
    (String.length s / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

(* ------------------------------------------------------------- protocol *)

let golden_requests =
  [
    ( P.Hello { version = 1; tenant = "t"; caps = 63 },
      "0000000e010000000100000001740000003f" );
    (P.Poll { ticket = 7 }, "000000050300000007");
    (P.Stats, "0000000104");
    (P.Shutdown, "0000000105");
  ]

let golden_replies =
  [
    (P.Busy { queue_depth = 3 }, "000000058300000003");
    (P.Bye, "0000000188");
    ( P.Result
        {
          ticket = 2;
          elapsed_us = 1.5;
          grids = [ { P.gname = "u"; gshape = [ 2 ]; gdata = [| 1.0; -0.0 |] } ];
        },
      "0000003286000000023ff8000000000000000000010000000175000000010000000200000002\
       3ff00000000000008000000000000000" );
  ]

(* two grids, pinned byte-for-byte by [test_multigrid_result_golden] *)
let multigrid_result =
  P.Result
    {
      ticket = 3;
      elapsed_us = 2.5;
      grids =
        [
          { P.gname = "u"; gshape = [ 2; 3 ]; gdata = [| 0.; 1.; 2.; 3.; 4.; 5. |] };
          { P.gname = "rhs"; gshape = [ 2 ]; gdata = [| 7.5; -1. |] };
        ];
    }

let test_goldens () =
  List.iter
    (fun (req, expect) ->
      Alcotest.(check string) "request frame" expect (hex (P.encode_request req));
      match P.decode_request (unhex expect) with
      | Ok got -> Alcotest.(check bool) "request re-decodes" true (got = req)
      | Error m -> Alcotest.failf "golden did not decode: %s" m)
    golden_requests;
  List.iter
    (fun (rep, expect) ->
      Alcotest.(check string) "reply frame" expect (hex (P.encode_reply rep));
      match P.decode_reply (unhex expect) with
      | Ok got -> Alcotest.(check bool) "reply re-decodes" true (got = rep)
      | Error m -> Alcotest.failf "golden did not decode: %s" m)
    golden_replies

(* The executor writes RESULT frames from mesh storage; encode_reply
   writes them from [P.grid]s.  They are one writer: equal cells, equal
   bytes, including NaN, -0 and the infinities. *)
let test_result_writer () =
  let from_storage = function
    | P.Result { ticket; elapsed_us; grids } ->
        P.encode_result ~ticket ~elapsed_us
          (List.map
             (fun (g : P.grid) ->
               (g.P.gname, g.P.gshape, Float.Array.map_from_array Fun.id g.P.gdata))
             grids)
    | _ -> assert false
  in
  let same what r =
    Alcotest.(check string) what (hex (P.encode_reply r)) (hex (from_storage r))
  in
  List.iter
    (fun (r, _) -> match r with P.Result _ -> same "golden" r | _ -> ())
    golden_replies;
  same "multi-grid golden" multigrid_result;
  same "non-finite cells"
    (P.Result
       {
         ticket = 0xFFFF_FFFF;
         elapsed_us = nan;
         grids =
           [
             {
               P.gname = "x";
               gshape = [ 5 ];
               gdata = [| nan; -0.; infinity; neg_infinity; Float.of_string "-nan" |];
             };
             { P.gname = ""; gshape = []; gdata = [||] };
           ];
       });
  let rng = Sf_proto_fuzz.Proto_gen.rng 23 in
  let results = ref 0 in
  for _ = 1 to 2000 do
    match Sf_proto_fuzz.Proto_gen.gen_reply rng with
    | P.Result _ as r ->
        incr results;
        same "generated RESULT" r
    | _ -> ()
  done;
  Alcotest.(check bool) "generated RESULTs compared" true (!results > 100);
  (* and the decoder reads back the same cell bits *)
  let cells = Float.Array.of_list [ nan; -0.; infinity; neg_infinity; 1e-310 ] in
  match P.decode_reply (P.encode_result ~ticket:1 ~elapsed_us:0. [ ("c", [ 5 ], cells) ]) with
  | Ok (P.Result { grids = [ g ]; _ }) ->
      Alcotest.(check (list int64)) "cell bits survive"
        (List.map Int64.bits_of_float (Float.Array.to_list cells))
        (List.map Int64.bits_of_float (Array.to_list g.P.gdata))
  | _ -> Alcotest.fail "storage RESULT does not decode"

let test_roundtrip () =
  let requests =
    [
      P.Hello { version = 1; tenant = "alice"; caps = P.cap_all };
      P.Submit
        {
          P.program = "; sffuzz (v 1)\n(group g)";
          backend = "openmp";
          workers = 4;
          reps = 3;
          fault = "kernel:raise@n=1";
        };
      P.Poll { ticket = 123456 };
      P.Stats;
      P.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match P.decode_request (P.encode_request r) with
      | Ok got -> Alcotest.(check bool) "request round-trips" true (got = r)
      | Error m -> Alcotest.failf "round-trip failed: %s" m)
    requests;
  let replies =
    [
      P.Welcome { version = 1; caps = 21; server = "sfserved/1" };
      P.Accepted { ticket = 9 };
      P.Busy { queue_depth = 64 };
      P.Rejected { ticket = 0; code = "proto"; message = "nope" };
      P.Pending { ticket = 5; running = true };
      P.Result
        {
          ticket = 5;
          elapsed_us = 123.25;
          grids =
            [
              { P.gname = "u"; gshape = [ 3; 4 ]; gdata = Array.init 12 float_of_int };
              { P.gname = "rhs"; gshape = [ 2 ]; gdata = [| infinity; 1e-300 |] };
            ];
        };
      P.Stats_reply { json = "{\"a\":1}" };
      P.Bye;
    ]
  in
  List.iter
    (fun r ->
      match P.decode_reply (P.encode_reply r) with
      | Ok got -> Alcotest.(check bool) "reply round-trips" true (got = r)
      | Error m -> Alcotest.failf "round-trip failed: %s" m)
    replies

let test_malformed () =
  let bad name s =
    match P.decode_request s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s decoded" name
  in
  bad "empty" "";
  bad "short header" "\x00\x00";
  bad "unknown tag" (unhex "00000001ff");
  bad "truncated hello" (unhex "0000000a0100000001000000ff");
  bad "trailing bytes" (unhex "000000020500");
  bad "length lie" (unhex "000000ff0400");
  (match P.decode_reply (unhex "00000001e9") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown reply tag decoded")

(* ------------------------------------------------- in-process harness *)

let with_server ?config f =
  let t = Server.create ?config () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.join t)
    (fun () -> f t)

(* One client connection served by a dedicated thread over a socketpair. *)
let with_conn t ~tenant f =
  let c_fd, s_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server_thread = Thread.create (fun () -> Server.serve_fd t s_fd) () in
  let finish () =
    (try Unix.close c_fd with Unix.Unix_error _ -> ());
    Thread.join server_thread;
    try Unix.close s_fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:finish (fun () ->
      match Client.of_fds ~tenant c_fd c_fd with
      | Ok c -> f c
      | Error m -> Alcotest.failf "handshake: %s" m)

let spec_program seed =
  let spec = Gen.spec ~seed () in
  (spec, Corpus.to_string spec)

let clean_submit ?(backend = "openmp") ?(workers = 1) program =
  { P.program; backend; workers; reps = 1; fault = "" }

let test_malformed_over_wire () =
  with_server (fun t ->
      let c_fd, s_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let server_thread = Thread.create (fun () -> Server.serve_fd t s_fd) () in
      P.write_request c_fd (P.Hello { version = P.version; tenant = "m"; caps = P.cap_all });
      (match P.read_reply c_fd with
      | Ok (Some (P.Welcome _)) -> ()
      | _ -> Alcotest.fail "no welcome");
      (* raw garbage: announced length 1, unknown tag *)
      P.write_frame c_fd (unhex "00000001f0");
      (match P.read_reply c_fd with
      | Ok (Some (P.Rejected { ticket = 0; code; _ })) ->
          Alcotest.(check string) "proto error" P.err_proto code
      | r ->
          Alcotest.failf "expected proto error, got %s"
            (match r with Ok None -> "EOF" | Error m -> m | _ -> "other reply"));
      Unix.close c_fd;
      Thread.join server_thread;
      (try Unix.close s_fd with Unix.Unix_error _ -> ());
      (* the server survived: a fresh connection still solves *)
      let _, program = spec_program 42 in
      with_conn t ~tenant:"m2" (fun c ->
          match Client.solve c (clean_submit program) with
          | Ok (Client.Solved _) -> ()
          | Ok (Client.Failed { code; message }) ->
              Alcotest.failf "solve failed %s: %s" code message
          | Error m -> Alcotest.failf "transport: %s" m))

let test_version_mismatch () =
  with_server (fun t ->
      let c_fd, s_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let server_thread = Thread.create (fun () -> Server.serve_fd t s_fd) () in
      P.write_request c_fd (P.Hello { version = 99; tenant = "v"; caps = 0 });
      (match P.read_reply c_fd with
      | Ok (Some (P.Rejected { ticket = 0; code; _ })) ->
          Alcotest.(check string) "proto error" P.err_proto code
      | _ -> Alcotest.fail "expected version rejection");
      (* the server side hung up after the rejection... *)
      Thread.join server_thread;
      Unix.close s_fd;
      (* ...so the client sees EOF, not more replies *)
      (match P.read_reply c_fd with
      | Ok None -> ()
      | _ -> Alcotest.fail "connection should be closed");
      Unix.close c_fd)

let test_parse_error () =
  (* a declared grid with no cells is a parse error, not an exception
     that drops the connection *)
  let empty_grid =
    let spec = Gen.spec ~seed:62 () in
    Corpus.to_string
      {
        spec with
        Gen.grids =
          List.map
            (fun (g : Gen.grid_spec) ->
              { g with Gen.gshape = Array.map (fun _ -> 0) g.Gen.gshape })
            spec.Gen.grids;
      }
  in
  with_server (fun t ->
      with_conn t ~tenant:"p" (fun c ->
          List.iter
            (fun program ->
              match Client.submit c (clean_submit program) with
              | Ok (P.Rejected { code; _ }) ->
                  Alcotest.(check string) "parse error" P.err_parse code
              | _ -> Alcotest.fail "expected parse rejection")
            [ "this is not a program"; empty_grid ]))

(* ---------------------------------------------------------- parse cache *)

let parse_counts () =
  ( Atomic.get (Sf_trace.Metrics.counter "serve.parse.hits"),
    Atomic.get (Sf_trace.Metrics.counter "serve.parse.misses") )

let result_bytes = function
  | Ok (Client.Solved { grids; _ }) ->
      P.encode_reply (P.Result { ticket = 0; elapsed_us = 0.; grids })
  | Ok (Client.Failed { code; message }) ->
      Alcotest.failf "solve failed %s: %s" code message
  | Error m -> Alcotest.failf "transport: %s" m

let test_parse_cache_hits () =
  let _, program = spec_program 60 in
  let n = 6 in
  with_server (fun t ->
      with_conn t ~tenant:"cache" (fun c ->
          let h0, m0 = parse_counts () in
          let first = result_bytes (Client.solve c (clean_submit program)) in
          for _ = 2 to n do
            Alcotest.(check bool) "resubmitted reply is bitwise the first" true
              (result_bytes (Client.solve c (clean_submit program)) = first)
          done;
          let h1, m1 = parse_counts () in
          Alcotest.(check int) "parsed once" 1 (m1 - m0);
          Alcotest.(check int) "later submits hit" (n - 1) (h1 - h0);
          Alcotest.(check int) "one entry" 1 (Server.parse_cache_entries t);
          (* a cached program is still checked per request *)
          match Client.submit c (clean_submit ~backend:"nope" program) with
          | Ok (P.Rejected { code; _ }) ->
              Alcotest.(check string) "backend still checked" P.err_parse code
          | _ -> Alcotest.fail "cached program with a bad backend admitted"))

let test_parse_cache_rejects_bad () =
  with_server (fun t ->
      with_conn t ~tenant:"bad" (fun c ->
          let h0, m0 = parse_counts () in
          for _ = 1 to 3 do
            match Client.submit c (clean_submit "this is not a program") with
            | Ok (P.Rejected { code; _ }) ->
                Alcotest.(check string) "parse error" P.err_parse code
            | _ -> Alcotest.fail "expected parse rejection"
          done;
          let h1, m1 = parse_counts () in
          Alcotest.(check int) "never a hit" 0 (h1 - h0);
          Alcotest.(check int) "parsed every time" 3 (m1 - m0);
          Alcotest.(check int) "nothing kept" 0 (Server.parse_cache_entries t)))

let test_parse_cache_bounded () =
  let _, program = spec_program 61 in
  with_server (fun t ->
      with_conn t ~tenant:"many" (fun c ->
          (* distinct texts of one program; the unknown backend rejects
             each after it parses, so nothing runs *)
          for k = 1 to Server.parse_capacity + 10 do
            let text = Printf.sprintf "%s; variant %d\n" program k in
            (match Client.submit c (clean_submit ~backend:"nope" text) with
            | Ok (P.Rejected _) -> ()
            | _ -> Alcotest.fail "expected backend rejection");
            Alcotest.(check bool) "within capacity" true
              (Server.parse_cache_entries t <= Server.parse_capacity)
          done;
          Alcotest.(check int) "full" Server.parse_capacity
            (Server.parse_cache_entries t)))

let test_quotas () =
  let spec, program = spec_program 43 in
  let cells = Ivec.product spec.Gen.shape in
  (* per-request cell ceiling *)
  let config =
    {
      Server.default_config with
      Server.quota = { Session.default_quota with Session.max_cells = cells - 1 };
    }
  in
  with_server ~config (fun t ->
      with_conn t ~tenant:"q-cells" (fun c ->
          match Client.submit c (clean_submit program) with
          | Ok (P.Rejected { code; _ }) ->
              Alcotest.(check string) "cell quota" P.err_quota_cells code
          | _ -> Alcotest.fail "expected quota-cells rejection"));
  (* cumulative budget: two requests fit, the third does not *)
  let config =
    {
      Server.default_config with
      Server.quota =
        { Session.default_quota with Session.cell_budget = (2 * cells) + 1 };
    }
  in
  with_server ~config (fun t ->
      with_conn t ~tenant:"q-budget" (fun c ->
          for i = 1 to 2 do
            match Client.solve c (clean_submit program) with
            | Ok (Client.Solved _) -> ()
            | _ -> Alcotest.failf "request %d should solve" i
          done;
          match Client.submit c (clean_submit program) with
          | Ok (P.Rejected { code; _ }) ->
              Alcotest.(check string) "budget quota" P.err_quota_budget code
          | _ -> Alcotest.fail "expected quota-budget rejection"))

(* The executor builds every grid a program declares, touched or not, so
   admission bounds them all: a program with an unused oversized grid is
   refused before anything allocates (at 10^15 cells, or a shape whose
   product wraps round to 0), and the server still solves a clean program
   afterwards. *)
let test_unused_grid_bounded () =
  let spec, program = spec_program 43 in
  let with_unused shape =
    Corpus.to_string
      {
        spec with
        Gen.grids =
          spec.Gen.grids
          @ [ { Gen.gname = "unused"; gshape = shape; gseed = -1 } ];
      }
  in
  let refused c program =
    match Client.submit c (clean_submit program) with
    | Ok (P.Rejected { code; _ }) ->
        Alcotest.(check string) "cell quota" P.err_quota_cells code
    | _ -> Alcotest.fail "program with an oversized unused grid admitted"
  in
  let solves c program =
    match Client.solve c (clean_submit program) with
    | Ok (Client.Solved _) -> ()
    | _ -> Alcotest.fail "clean program not solved"
  in
  (* at the limit exactly: the program's own grids fit, one more cell
     does not *)
  let config =
    {
      Server.default_config with
      Server.quota =
        { Session.default_quota with Session.max_cells = Gen.grid_cells spec };
    }
  in
  with_server ~config (fun t ->
      with_conn t ~tenant:"unused-edge" (fun c ->
          solves c program;
          refused c (with_unused [| 1 |]);
          solves c program));
  with_server (fun t ->
      with_conn t ~tenant:"unused" (fun c ->
          refused c (with_unused [| 1000000; 1000000; 1000 |]);
          refused c (with_unused [| 1 lsl 31; 1 lsl 31; 4 |]);
          solves c program))

let test_busy_backpressure () =
  let _, program = spec_program 44 in
  let config =
    { Server.default_config with Server.threads = 1; queue_cap = 1 }
  in
  with_server ~config (fun t ->
      with_conn t ~tenant:"busy" (fun c ->
          (* occupy the only executor: a delay fault stalls the solve *)
          let slow =
            { (clean_submit program) with P.fault = "kernel:delay=0.7" }
          in
          let slow_ticket =
            match Client.submit c slow with
            | Ok (P.Accepted { ticket }) -> ticket
            | _ -> Alcotest.fail "slow submit not accepted"
          in
          (* wait until it is actually running, i.e. off the queue *)
          let rec await_running () =
            match Client.poll c slow_ticket with
            | Ok (P.Pending { running = true; _ }) -> ()
            | Ok (P.Pending { running = false; _ }) ->
                Thread.delay 0.005;
                await_running ()
            | _ -> Alcotest.fail "unexpected poll reply while waiting"
          in
          await_running ();
          (* fill the queue (capacity 1)... *)
          let queued_ticket =
            match Client.submit c (clean_submit program) with
            | Ok (P.Accepted { ticket }) -> ticket
            | _ -> Alcotest.fail "queued submit not accepted"
          in
          (* ...so the next submit must bounce with BUSY, not block *)
          (match Client.submit c (clean_submit program) with
          | Ok (P.Busy { queue_depth }) ->
              Alcotest.(check int) "reported depth" 1 queue_depth
          | Ok (P.Accepted _) -> Alcotest.fail "expected BUSY, got ACCEPTED"
          | _ -> Alcotest.fail "expected BUSY");
          (* everything admitted still completes *)
          (match Client.wait c slow_ticket with
          | Ok (Client.Solved _) -> ()
          | _ -> Alcotest.fail "delayed request should still solve");
          match Client.wait c queued_ticket with
          | Ok (Client.Solved _) -> ()
          | _ -> Alcotest.fail "queued request should solve"))

(* --------------------------------------------- connection death modes *)

module Json = Sf_trace.Json

let stats_field c path =
  match Client.stats c with
  | Error m -> Alcotest.failf "stats: %s" m
  | Ok s -> (
      match Json.of_string s with
      | Error m -> Alcotest.failf "stats unparseable: %s" m
      | Ok doc -> (
          match
            List.fold_left
              (fun acc k -> Option.bind acc (Json.member k))
              (Some doc) path
          with
          | Some (Json.Num v) -> v
          | _ -> Alcotest.failf "stats missing %s" (String.concat "." path)))

let tenant_completed c tenant =
  match Client.stats c with
  | Error m -> Alcotest.failf "stats: %s" m
  | Ok s -> (
      match Json.of_string s with
      | Error m -> Alcotest.failf "stats unparseable: %s" m
      | Ok doc -> (
          match Json.member "tenants" doc with
          | Some (Json.Arr ts) ->
              List.fold_left
                (fun acc t ->
                  match
                    (Json.member "tenant" t, Json.member "completed" t)
                  with
                  | Some (Json.Str name), Some (Json.Num v) when name = tenant
                    ->
                      v
                  | _ -> acc)
                0. ts
          | _ -> 0.))

(* A solve that raises what [Supervisor.protect] re-raises (here an
   injected [Assert_failure]) fails its request only: the ticket answers
   REJECTED fatal, the tenant's next request solves, and no executor
   thread died. *)
let test_fatal_contained () =
  let _, program = spec_program 61 in
  with_server (fun t ->
      with_conn t ~tenant:"fatal" (fun c ->
          let fatal0 = Atomic.get (Sf_trace.Metrics.counter "serve.executor.fatal") in
          (match Client.solve c { (clean_submit program) with P.fault = "kernel:fatal" } with
          | Ok (Client.Failed { code; message }) ->
              Alcotest.(check string) "fatal code" P.err_fatal code;
              Alcotest.(check bool) "exception text" true
                (String.length message > 0)
          | Ok (Client.Solved _) -> Alcotest.fail "a fatal fault solved"
          | Error m -> Alcotest.failf "transport: %s" m);
          Alcotest.(check int) "counted" (fatal0 + 1)
            (Atomic.get (Sf_trace.Metrics.counter "serve.executor.fatal"));
          (match Client.solve c (clean_submit program) with
          | Ok (Client.Solved _) -> ()
          | _ -> Alcotest.fail "the next request should solve");
          let threads = stats_field c [ "executors"; "threads" ] in
          Alcotest.(check bool) "executors started" true (threads >= 1.);
          Alcotest.(check (float 0.)) "every executor alive" threads
            (stats_field c [ "executors"; "alive" ])))

(* A client that hangs up before reading its reply: the server's write
   must surface as EPIPE (SIGPIPE is ignored in Server.create), killing
   only that connection — pre-fix, the default SIGPIPE action killed
   this whole test process. *)
let test_dead_client_sigpipe () =
  with_server (fun t ->
      let c_fd, s_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      P.write_request c_fd
        (P.Hello { version = P.version; tenant = "gone"; caps = P.cap_all });
      (* hang up before the server even reads the HELLO: the HELLO stays
         readable in the socket buffer, so the Welcome write that
         answers it is then guaranteed to hit EPIPE *)
      Unix.close c_fd;
      let server_thread = Thread.create (fun () -> Server.serve_fd t s_fd) () in
      Thread.join server_thread;
      (try Unix.close s_fd with Unix.Unix_error _ -> ());
      (* the daemon survived; a fresh connection still solves *)
      let _, program = spec_program 51 in
      with_conn t ~tenant:"alive" (fun c ->
          match Client.solve c (clean_submit program) with
          | Ok (Client.Solved _) -> ()
          | _ -> Alcotest.fail "server no longer solves after client EPIPE"))

(* A tenant that disconnects without polling must not leave its Done
   ticket (holding the full result grids) in the server forever. *)
let test_disconnect_reaps_tickets () =
  let _, program = spec_program 52 in
  with_server (fun t ->
      with_conn t ~tenant:"leaker" (fun c ->
          (match Client.submit c (clean_submit program) with
          | Ok (P.Accepted _) -> ()
          | _ -> Alcotest.fail "submit not accepted");
          (* wait for completion *without* polling the ticket — a poll
             would claim the reply and hide the leak *)
          let rec await n =
            if n = 0 then Alcotest.fail "solve never completed"
            else if tenant_completed c "leaker" < 1. then begin
              Thread.delay 0.01;
              await (n - 1)
            end
          in
          await 1000;
          Alcotest.(check (float 0.))
            "one unclaimed ticket held" 1.
            (stats_field c [ "queue"; "tickets" ]));
      (* with_conn joined the connection thread: the reap is done *)
      with_conn t ~tenant:"auditor" (fun c ->
          Alcotest.(check (float 0.))
            "unclaimed ticket reaped on disconnect" 0.
            (stats_field c [ "queue"; "tickets" ])))

(* stop() must leave every Accepted-but-unstarted ticket with a terminal
   reply, not drop it so polls spin forever. *)
let test_stop_rejects_queued () =
  let _, program = spec_program 53 in
  let config =
    { Server.default_config with Server.threads = 1; queue_cap = 4 }
  in
  with_server ~config (fun t ->
      with_conn t ~tenant:"drain" (fun c ->
          (* park the only executor on a delay fault *)
          let slow =
            { (clean_submit program) with P.fault = "kernel:delay=0.4" }
          in
          let slow_ticket =
            match Client.submit c slow with
            | Ok (P.Accepted { ticket }) -> ticket
            | _ -> Alcotest.fail "slow submit not accepted"
          in
          let rec await_running () =
            match Client.poll c slow_ticket with
            | Ok (P.Pending { running = true; _ }) -> ()
            | Ok (P.Pending { running = false; _ }) ->
                Thread.delay 0.005;
                await_running ()
            | _ -> Alcotest.fail "unexpected poll reply while waiting"
          in
          await_running ();
          let queued_ticket =
            match Client.submit c (clean_submit program) with
            | Ok (P.Accepted { ticket }) -> ticket
            | _ -> Alcotest.fail "queued submit not accepted"
          in
          Server.stop t;
          (match Client.wait c queued_ticket with
          | Ok (Client.Failed { code; message }) ->
              Alcotest.(check string) "error code" P.err_proto code;
              Alcotest.(check string)
                "shutdown message" "server shutting down" message
          | _ -> Alcotest.fail "queued ticket lacks a terminal reply");
          (* the solve that was already running still delivers *)
          match Client.wait c slow_ticket with
          | Ok (Client.Solved _) -> ()
          | _ -> Alcotest.fail "running solve should still deliver"))

(* Starting a second daemon on an in-use socket path must refuse, not
   silently sever the first daemon's listener. *)
let test_listen_refuses_live_socket () =
  let path = Filename.temp_file "sfserved_live" ".sock" in
  Sys.remove path;
  with_server (fun t1 ->
      let listener = Thread.create (fun () -> Server.listen_unix t1 ~path) () in
      let rec await n =
        if n = 0 then Alcotest.fail "first listener never came up"
        else
          match Client.connect_unix ~tenant:"probe" path with
          | Ok c -> Client.close c
          | Error _ ->
              Thread.delay 0.01;
              await (n - 1)
      in
      await 500;
      with_server (fun t2 ->
          match Server.listen_unix t2 ~path with
          | () -> Alcotest.fail "second daemon bound over a live socket"
          | exception Failure _ -> ());
      (* the first daemon is still there, still serving *)
      (match Client.connect_unix ~tenant:"probe2" path with
      | Ok c -> Client.close c
      | Error m -> Alcotest.failf "first daemon was severed: %s" m);
      Server.stop t1;
      Thread.join listener)

(* ------------------------------------- standalone vs server, bitwise *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Fcmp.ulp_equal ~ulps:0 x y) a b

let local_run spec ~workers =
  let config = { Config.default with Config.workers } in
  let kernel =
    Jit.compile ~config Jit.Openmp ~shape:spec.Gen.shape spec.Gen.group
  in
  let grids = Gen.build_grids spec in
  kernel.Sf_backends.Kernel.run ~params:spec.Gen.params grids;
  grids

let test_bitwise_vs_standalone () =
  with_server (fun t ->
      List.iter
        (fun workers ->
          List.iter
            (fun seed ->
              let spec, program = spec_program seed in
              let reference = local_run spec ~workers in
              with_conn t
                ~tenant:(Printf.sprintf "bitwise-%d" workers)
                (fun c ->
                  match Client.solve c (clean_submit ~workers program) with
                  | Ok (Client.Solved { grids; _ }) ->
                      Alcotest.(check bool)
                        "server returned every grid" true
                        (List.length grids
                        = List.length (Sf_mesh.Grids.names reference));
                      List.iter
                        (fun (g : P.grid) ->
                          let m = Sf_mesh.Grids.find reference g.P.gname in
                          let fa = Sf_mesh.Mesh.data m in
                          let local =
                            Array.init (Float.Array.length fa)
                              (Float.Array.get fa)
                          in
                          if not (bits_equal local g.P.gdata) then
                            Alcotest.failf
                              "grid %s differs from the standalone run \
                               (seed %d, workers %d)"
                              g.P.gname seed workers)
                        grids
                  | Ok (Client.Failed { code; message }) ->
                      Alcotest.failf "solve failed %s: %s" code message
                  | Error m -> Alcotest.failf "transport: %s" m))
            [ 46; 47; 48 ])
        [ 1; 4 ])

(* ------------------------------------- protocol-fuzz satellite pins *)

(* Multi-grid RESULT pinned byte-for-byte.  The decoder used to build
   grids with List.init/Array.init over a side-effecting cursor, whose
   evaluation order is unspecified before OCaml 5.1 — an order flip
   would silently permute shapes and cells.  The golden pins the
   explicit in-order loops. *)
let test_multigrid_result_golden () =
  let reply = multigrid_result in
  let expect =
    "00000079860000000340040000000000000000000200000001750000000200000002\
     0000000300000006000000000000000\
     03ff000000000000040000000000000004008000000000000\
     4010000000000000401400000000000000000003726873000000010000000200000002\
     401e000000000000bff0000000000000"
  in
  Alcotest.(check string)
    "multi-grid RESULT frame" expect
    (hex (P.encode_reply reply));
  match P.decode_reply (unhex expect) with
  | Ok got ->
      Alcotest.(check bool)
        "decodes to the same grids, shapes and cells in order" true
        (got = reply)
  | Error m -> Alcotest.failf "golden did not decode: %s" m

(* SUBMIT.workers/.reps are raw u32s on the wire; admission must bound
   them before any parse, compile or quota work. *)
let test_admission_limits () =
  let _, program = spec_program 45 in
  let config =
    { Server.default_config with Server.max_workers = 4; max_reps = 8 }
  in
  with_server ~config (fun t ->
      with_conn t ~tenant:"limits" (fun c ->
          (match
             Client.submit c
               { (clean_submit program) with P.workers = 0xFFFF_FFFF }
           with
          | Ok (P.Rejected { code; message; _ }) ->
              Alcotest.(check string) "workers code" P.err_parse code;
              Alcotest.(check bool)
                "message names the field" true
                (String.length message >= 7
                && String.sub message 0 7 = "SUBMIT.")
          | _ -> Alcotest.fail "4-billion-worker submit admitted");
          (match
             Client.submit c { (clean_submit program) with P.reps = 0xFFFF_FFFF }
           with
          | Ok (P.Rejected { code; _ }) ->
              Alcotest.(check string) "reps code" P.err_parse code
          | _ -> Alcotest.fail "4-billion-rep submit admitted");
          (* at the limit is not over it *)
          match Client.solve c { (clean_submit program) with P.workers = 4 } with
          | Ok (Client.Solved _) -> ()
          | Ok (Client.Failed { code; message }) ->
              Alcotest.failf "at-limit solve failed %s: %s" code message
          | Error m -> Alcotest.failf "transport: %s" m))

(* Where an EOF lands must stay diagnosable: between frames / inside the
   4-byte length prefix vs inside an announced payload are different
   failure stories and carry different error strings. *)
let test_eof_error_paths () =
  let run_case bytes =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let n = Unix.write_substring a bytes 0 (String.length bytes) in
    Alcotest.(check int) "partial frame written" (String.length bytes) n;
    Unix.close a;
    let r = P.read_frame b in
    Unix.close b;
    r
  in
  (match run_case "\x00\x00" with
  | Error m ->
      Alcotest.(check string) "died mid-prefix" "EOF inside length prefix" m
  | Ok _ -> Alcotest.fail "2-byte prefix should not read");
  (match run_case "\x00\x00\x00\x05\x03\x00" with
  | Error m ->
      Alcotest.(check string) "died mid-payload" "EOF inside frame payload" m
  | Ok _ -> Alcotest.fail "truncated payload should not read");
  (* a clean EOF between frames stays None, not an error *)
  match run_case "" with
  | Ok None -> ()
  | _ -> Alcotest.fail "clean EOF should be None"

(* write_frame against a non-blocking descriptor: a frame bigger than
   the socket buffer forces EAGAIN mid-write; the select-park-retry path
   must deliver the frame whole to a slow reader. *)
let test_write_frame_nonblocking () =
  let frame =
    P.encode_reply
      (P.Result
         {
           ticket = 1;
           elapsed_us = 0.;
           grids =
             [
               {
                 P.gname = "big";
                 gshape = [ 300_000 ];
                 gdata = Array.init 300_000 float_of_int;
               };
             ];
         })
  in
  let c_fd, s_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock c_fd;
  let got = ref (Error "reader never ran") in
  let reader =
    Thread.create
      (fun () ->
        (* park long enough that the writer certainly fills the socket
           buffer and hits EAGAIN before any byte is drained *)
        Thread.delay 0.2;
        got := P.read_frame s_fd)
      ()
  in
  P.write_frame c_fd frame;
  Thread.join reader;
  Unix.close c_fd;
  Unix.close s_fd;
  match !got with
  | Ok (Some read_back) ->
      Alcotest.(check bool)
        "frame arrived whole and bitwise intact" true (read_back = frame)
  | Ok None -> Alcotest.fail "reader saw EOF"
  | Error m -> Alcotest.failf "reader failed: %s" m

(* Ticket isolation across tenants, pinned in all three lifecycle
   states: another tenant polling your Queued, Running or Done ticket
   must be REJECTED, and the ticket must stay claimable by you. *)
let test_cross_tenant_isolation () =
  let _, program = spec_program 54 in
  let config =
    { Server.default_config with Server.threads = 1; queue_cap = 4 }
  in
  with_server ~config (fun t ->
      with_conn t ~tenant:"iso-a" (fun ca ->
          with_conn t ~tenant:"iso-b" (fun cb ->
              let foreign_rejected what ticket =
                match Client.poll cb ticket with
                | Ok (P.Rejected { code; _ }) ->
                    Alcotest.(check string)
                      (what ^ " poll rejected") P.err_proto code
                | Ok (P.Result _) ->
                    Alcotest.failf "tenant B claimed A's %s result" what
                | Ok (P.Pending _) ->
                    Alcotest.failf "tenant B saw A's %s status" what
                | _ -> Alcotest.failf "unexpected reply to %s poll" what
              in
              (* Running: a delay fault parks A's solve on the only
                 executor; Queued: the next submit waits behind it *)
              let slow =
                { (clean_submit program) with P.fault = "kernel:delay=0.4" }
              in
              let running_ticket =
                match Client.submit ca slow with
                | Ok (P.Accepted { ticket }) -> ticket
                | _ -> Alcotest.fail "slow submit not accepted"
              in
              let rec await_running () =
                match Client.poll ca running_ticket with
                | Ok (P.Pending { running = true; _ }) -> ()
                | Ok (P.Pending { running = false; _ }) ->
                    Thread.delay 0.005;
                    await_running ()
                | _ -> Alcotest.fail "unexpected poll while waiting"
              in
              await_running ();
              let queued_ticket =
                match Client.submit ca (clean_submit program) with
                | Ok (P.Accepted { ticket }) -> ticket
                | _ -> Alcotest.fail "queued submit not accepted"
              in
              foreign_rejected "running" running_ticket;
              foreign_rejected "queued" queued_ticket;
              (* both still claimable by their owner *)
              (match Client.wait ca running_ticket with
              | Ok (Client.Solved _) -> ()
              | _ -> Alcotest.fail "A lost its running ticket");
              (match Client.wait ca queued_ticket with
              | Ok (Client.Solved _) -> ()
              | _ -> Alcotest.fail "A lost its queued ticket");
              (* Done: solve, let it complete unclaimed, then B tries *)
              let done_ticket =
                match Client.submit ca (clean_submit program) with
                | Ok (P.Accepted { ticket }) -> ticket
                | _ -> Alcotest.fail "third submit not accepted"
              in
              let rec await_done n =
                if n = 0 then Alcotest.fail "third solve never completed"
                else if tenant_completed ca "iso-a" < 3. then begin
                  Thread.delay 0.01;
                  await_done (n - 1)
                end
              in
              await_done 1000;
              foreign_rejected "done" done_ticket;
              match Client.poll ca done_ticket with
              | Ok (P.Result _) -> ()
              | _ ->
                  Alcotest.fail
                    "A's done ticket was not claimable after B's probe")))

(* Two tenants, one executor: programs that differ only in a constant
   whose [Hashtbl.hash] collides (23.182 and 38.905) each get their own
   answer, never the kernel compiled for the other. *)
let test_two_tenant_identity () =
  let program k =
    Printf.sprintf
      "; sffuzz (v 1)\n\
       ; sffuzz (seed 0)\n\
       ; sffuzz (shape 8)\n\
       ; sffuzz (grid x (8) 5)\n\
       ; sffuzz (grid y (8) -1)\n\
       (group scale\n\
      \ (stencil s (output y) (domain (rect (lo 0) (hi 0)))\n\
      \  (expr (* (read x (0)) (const %s)))))\n"
      k
  in
  let x = Sf_mesh.Mesh.data (Sf_mesh.Mesh.random ~seed:5 (Ivec.of_list [ 8 ])) in
  let expect factor = Array.init 8 (fun i -> factor *. Float.Array.get x i) in
  let config = { Server.default_config with Server.threads = 1 } in
  with_server ~config (fun t ->
      List.iter
        (fun (tenant, text, factor) ->
          with_conn t ~tenant (fun c ->
              match Client.solve c (clean_submit (program text)) with
              | Ok (Client.Solved { grids; _ }) ->
                  let y = List.find (fun (g : P.grid) -> g.P.gname = "y") grids in
                  if not (bits_equal (expect factor) y.P.gdata) then
                    Alcotest.failf "tenant %s: y[0] = %h, expected %h" tenant
                      y.P.gdata.(0) (expect factor).(0)
              | Ok (Client.Failed { code; message }) ->
                  Alcotest.failf "tenant %s: %s: %s" tenant code message
              | Error m -> Alcotest.failf "tenant %s: transport: %s" tenant m))
        [ ("a", "23.182", 23.182); ("b", "38.905", 38.905) ])

(* --------------------------------------------- pool at_exit regression *)

(* pool_exit_check exits 3 when the interesting schedule happened (exit
   from a chunk stolen by a helper domain) and the process still died
   cleanly; 4 when the racy schedule was uninteresting.  The pre-fix
   pool hangs on status-3 schedules, which the per-attempt timeout turns
   into a failure. *)
(* the probe executables live next to this test binary *)
let sibling exe = Filename.concat (Filename.dirname Sys.executable_name) exe

let test_pool_exit_regression () =
  let attempt () =
    let pid =
      Unix.create_process
        (sibling "pool_exit_check.exe")
        [| "pool_exit_check.exe" |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    let deadline = Unix.gettimeofday () +. 10. in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            Alcotest.fail
              "pool_exit_check hung: at_exit shutdown self-join regressed"
          end
          else begin
            Thread.delay 0.02;
            reap ()
          end
      | _, Unix.WEXITED n -> n
      | _, _ -> Alcotest.fail "pool_exit_check killed by signal"
    in
    reap ()
  in
  (* retry until the stolen-chunk schedule actually occurs; the pause
     between attempts lets transient whole-machine load (e.g. a build
     that just finished) subside, since a saturated machine can pin
     every chunk to the main domain for many attempts in a row *)
  let rec go n =
    if n = 0 then
      Alcotest.fail "stolen-chunk schedule never occurred in 40 attempts"
    else
      match attempt () with
      | 3 -> ()
      | 4 ->
          Thread.delay 0.05;
          go (n - 1)
      | n -> Alcotest.failf "unexpected pool_exit_check status %d" n
  in
  go 40

(* ------------------------------------------ autotune DB concurrency *)

let test_autotune_db_concurrent () =
  let db = Filename.temp_file "sf_tune_test" ".json" in
  Sys.remove db;
  (* four separate writer processes against one DB path: every writer
     checks the document is well-formed after each of its own writes *)
  let pids =
    List.init 4 (fun child ->
        Unix.create_process
          (sibling "tune_write_check.exe")
          [| "tune_write_check.exe"; db; string_of_int child |]
          Unix.stdin Unix.stdout Unix.stderr)
  in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED n ->
          Alcotest.failf "writer observed a torn DB (exit %d)" n
      | _, _ -> Alcotest.fail "writer killed")
    pids;
  Alcotest.(check bool) "final DB well-formed" true (Autotune.db_is_wellformed ~db);
  Alcotest.(check bool)
    "entries survived" true
    (Autotune.db_entry_count ~db >= 1);
  Sys.remove db

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "goldens" `Quick test_goldens;
          Alcotest.test_case "RESULT writer" `Quick test_result_writer;
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "malformed frames" `Quick test_malformed;
        ] );
      ( "server",
        [
          Alcotest.test_case "malformed over wire" `Quick
            test_malformed_over_wire;
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "parse cache hits" `Quick test_parse_cache_hits;
          Alcotest.test_case "parse cache skips bad programs" `Quick
            test_parse_cache_rejects_bad;
          Alcotest.test_case "parse cache bounded" `Quick
            test_parse_cache_bounded;
          Alcotest.test_case "quotas" `Quick test_quotas;
          Alcotest.test_case "unused grid bounded" `Quick
            test_unused_grid_bounded;
          Alcotest.test_case "busy backpressure" `Quick test_busy_backpressure;
          Alcotest.test_case "dead client EPIPE" `Quick
            test_dead_client_sigpipe;
          Alcotest.test_case "disconnect reaps tickets" `Quick
            test_disconnect_reaps_tickets;
          Alcotest.test_case "stop rejects queued" `Quick
            test_stop_rejects_queued;
          Alcotest.test_case "live socket refusal" `Quick
            test_listen_refuses_live_socket;
          Alcotest.test_case "bitwise vs standalone" `Quick
            test_bitwise_vs_standalone;
          Alcotest.test_case "multi-grid RESULT golden" `Quick
            test_multigrid_result_golden;
          Alcotest.test_case "admission limits" `Quick test_admission_limits;
          Alcotest.test_case "EOF error paths" `Quick test_eof_error_paths;
          Alcotest.test_case "fatal exception contained" `Quick
            test_fatal_contained;
          Alcotest.test_case "non-blocking write_frame" `Quick
            test_write_frame_nonblocking;
          Alcotest.test_case "cross-tenant isolation" `Quick
            test_cross_tenant_isolation;
          Alcotest.test_case "two tenants, colliding constants" `Quick
            test_two_tenant_identity;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "pool at_exit self-join" `Quick
            test_pool_exit_regression;
          Alcotest.test_case "autotune db concurrency" `Quick
            test_autotune_db_concurrent;
        ] );
    ]
