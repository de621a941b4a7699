(* sf_resilience unit tests: fault-spec grammar and triggering, guard
   scans, supervised retry/failover, the checkpoint ring, and the two
   end-to-end healing paths (Mg rollback, Spmd rank recovery).

   Every test disarms faults and clears the guard mode on exit — the
   alcotest runner shares process-wide resilience state. *)

open Sf_mesh
open Sf_backends
open Sf_resilience
module Mg = Sf_hpgmg.Mg
module Problem = Sf_hpgmg.Problem
module Spmd = Sf_distributed.Spmd
module Metrics = Sf_trace.Metrics
module Trace = Sf_trace.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let count name = Atomic.get (Metrics.counter name)

let clean f =
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Guard.clear_mode ();
      Metrics.reset ())
    f

(* ----------------------------------------------------------- fault spec *)

let test_fault_parse_roundtrip () =
  let spec = "kernel:raise@match=openmp,wave:transient@n=2@count=2" in
  match Fault.parse spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok clauses -> (
      check_int "two clauses" 2 (List.length clauses);
      let rendered = Fault.to_string clauses in
      match Fault.parse rendered with
      | Error e -> Alcotest.failf "re-parse failed: %s" e
      | Ok again ->
          check_string "round-trips" rendered (Fault.to_string again))

let test_fault_parse_rejects () =
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" bad
      | Error _ -> ())
    [ "kernel"; "kernel:frobnicate"; "kernel:raise@p=nope"; ":raise"; "a:b:c" ]

let test_fault_nth_and_count () =
  clean (fun () ->
      (* @n= fires exactly on the n-th occurrence *)
      Fault.arm_exn "s:nan@n=3";
      let fired =
        List.init 6 (fun _ -> Fault.check ~site:"s" ~detail:"d" <> None)
      in
      Alcotest.(check (list bool))
        "occurrence 3 only"
        [ false; false; true; false; false; false ]
        fired;
      (* @count= caps total firings *)
      Fault.arm_exn "s:nan@count=2";
      let fired =
        List.init 5 (fun _ -> Fault.check ~site:"s" ~detail:"d" <> None)
      in
      Alcotest.(check (list bool))
        "first two occurrences only"
        [ true; true; false; false; false ]
        fired;
      check_int "fault.injected" 3 (count "fault.injected"))

let test_fault_match_filter () =
  clean (fun () ->
      Fault.arm_exn "kernel:raise@match=openmp";
      check_bool "wrong detail ignored" true
        (Fault.check ~site:"kernel" ~detail:"compiled:g" = None);
      check_bool "wrong site ignored" true
        (Fault.check ~site:"wave" ~detail:"openmp:g" = None);
      check_bool "matching detail fires" true
        (Fault.check ~site:"kernel" ~detail:"openmp:g" = Some Fault.Raise))

let test_fault_probability_deterministic () =
  let draw () =
    Fault.arm_exn "s:nan@p=0.5@seed=7@count=inf";
    let pat =
      List.init 64 (fun _ -> Fault.check ~site:"s" ~detail:"" <> None)
    in
    Fault.disarm ();
    pat
  in
  clean (fun () ->
      let a = draw () and b = draw () in
      Alcotest.(check (list bool)) "same seed, same campaign" a b;
      check_bool "some fired" true (List.mem true a);
      check_bool "some skipped" true (List.mem false a))

let test_fault_fire_raises () =
  clean (fun () ->
      Fault.arm_exn "s:raise";
      try
        ignore (Fault.fire ~site:"s" ~detail:"d");
        Alcotest.fail "no exception"
      with Fault.Injected { site; detail; _ } ->
        check_string "site" "s" site;
        check_string "detail" "d" detail)

(* ---------------------------------------------------------------- guard *)

let test_guard_scan () =
  clean (fun () ->
      let m = Mesh.create [| 8; 8 |] in
      Guard.scan_mesh ~mode:Guard.Full ~name:"clean" m;
      Mesh.set_flat m 13 Float.nan;
      (try
         Guard.scan_mesh ~mode:Guard.Full ~name:"dirty" m;
         Alcotest.fail "full scan missed the NaN"
       with Guard.Tripped { grid; index; _ } ->
         check_string "grid" "dirty" grid;
         check_int "index" 13 index);
      (* the sampled scan always includes the last point *)
      let m2 = Mesh.create [| 64; 64; 64 |] in
      Mesh.set_flat m2 (Mesh.size m2 - 1) Float.infinity;
      (try
         Guard.scan_mesh ~mode:Guard.Sample ~name:"tail" m2;
         Alcotest.fail "sample scan missed the tail Inf"
       with Guard.Tripped _ -> ());
      check_int "trips counted" 2 (count "guard.trips"))

let test_guard_effective_modes () =
  clean (fun () ->
      check_bool "clean run: off" true (Guard.effective () = Guard.Off);
      Fault.arm_exn "s:nan";
      check_bool "armed faults imply Sample" true
        (Guard.effective () = Guard.Sample);
      Guard.set_mode Guard.Full;
      check_bool "forced mode wins" true (Guard.effective () = Guard.Full);
      Guard.clear_mode ();
      Fault.disarm ();
      check_bool "back off" true (Guard.effective () = Guard.Off))

(* ----------------------------------------------------------- supervisor *)

let fast_policy =
  { Supervisor.default_policy with retries = 2; backoff_us = 1. }

let test_supervisor_retry_heals () =
  clean (fun () ->
      let calls = ref 0 in
      let v =
        Supervisor.run ~policy:fast_policy ~name:"t"
          [
            ( "flaky",
              fun () ->
                incr calls;
                if !calls < 3 then failwith "transient" else 42 );
          ]
      in
      check_int "healed on third try" 42 v;
      check_int "two retries recorded" 2 (count "supervisor.retries");
      check_int "no failover" 0 (count "supervisor.failovers"))

let test_supervisor_failover () =
  clean (fun () ->
      let v =
        Supervisor.run ~policy:fast_policy ~name:"t"
          [
            ("broken", fun () -> failwith "persistent");
            ("backup", fun () -> "ok");
          ]
      in
      check_string "fell over" "ok" v;
      check_int "one failover" 1 (count "supervisor.failovers");
      (* chain exhausted: the last failure surfaces *)
      try
        Supervisor.run ~policy:fast_policy ~name:"t"
          [ ("a", fun () -> failwith "first"); ("b", fun () -> failwith "last") ]
      with Failure m -> check_string "last failure re-raised" "last" m)

let test_supervisor_fatal_not_absorbed () =
  clean (fun () ->
      try
        Supervisor.run ~policy:fast_policy ~name:"t"
          [ ("oom", fun () -> raise Out_of_memory); ("never", fun () -> ()) ]
      with Out_of_memory ->
        check_int "no retries on fatal" 0 (count "supervisor.retries"))

(* ----------------------------------------------------------- checkpoint *)

let test_checkpoint_ring () =
  clean (fun () ->
      let state = ref 0 in
      let ck =
        Checkpoint.create ~capacity:2 ~label:"t"
          ~alloc:(fun () -> ref 0)
          ~save:(fun buf -> buf := !state)
          ~restore:(fun buf -> state := !buf)
          ()
      in
      check_bool "empty ring: no rollback" true (Checkpoint.rollback ck = None);
      state := 1;
      Checkpoint.checkpoint ck ~tag:1;
      state := 2;
      Checkpoint.checkpoint ck ~tag:2;
      state := 3;
      (* capacity 2: tag 3 reuses tag 1's buffer *)
      Checkpoint.checkpoint ck ~tag:3;
      check_int "depth capped" 2 (Checkpoint.depth ck);
      check_int "taken counts all" 3 (Checkpoint.taken ck);
      state := 99;
      check_bool "rollback to newest" true (Checkpoint.rollback ck = Some 3);
      check_int "state restored" 3 !state;
      (* the snapshot stays: a second failure lands on the same point *)
      state := 99;
      check_bool "rollback again" true (Checkpoint.rollback ck = Some 3);
      check_int "state restored again" 3 !state;
      Checkpoint.discard_latest ck;
      check_bool "older snapshot exposed" true (Checkpoint.rollback ck = Some 2);
      check_int "older state" 2 !state;
      check_int "ring rollbacks" 3 (Checkpoint.rollbacks ck))

(* -------------------------------------------------- kernel error naming *)

let test_param_lookup_names_stencil () =
  let loc = Snowflake.Srcloc.stencil ~group:"gsrb" "red" in
  try
    ignore (Kernel.param_lookup ~loc [ ("a", 1.) ] "h2inv");
    Alcotest.fail "lookup succeeded"
  with Invalid_argument m ->
    check_bool
      (Printf.sprintf "message %S names the stencil" m)
      true
      (let has sub =
         let n = String.length sub and ln = String.length m in
         let rec go i = i + n <= ln && (String.sub m i n = sub || go (i + 1)) in
         go 0
       in
       has "h2inv" && has "gsrb/red")

(* ----------------------------------------------- end-to-end: Mg healing *)

let test_mg_solve_resilient_heals () =
  clean (fun () ->
      Jit.clear_cache ();
      let solve () =
        let solver = Mg.create ~n:16 () in
        Problem.setup_poisson (Mg.finest solver);
        let norms = Mg.solve_resilient ~cycles:4 solver in
        norms.(Array.length norms - 1)
      in
      let clean_r = solve () in
      (* one NaN mid-campaign: divergence detector must roll back and the
         final residual must match a fault-free solve's ballpark *)
      let faulted traced =
        Metrics.reset ();
        Trace.clear ();
        Fault.arm_exn "mg:nan@n=6@count=1";
        Fun.protect ~finally:Fault.disarm (fun () ->
            Trace.with_enabled traced solve)
      in
      let faulted_r = faulted false in
      check_bool "fault actually injected" true (count "fault.injected" > 0);
      check_bool "rollback happened" true (count "checkpoint.rollbacks" > 0);
      (* tracing off: the rollback's sticky backend demotion is counted
         anyway, as its own metric *)
      let demotions = count "mg.demotions" in
      let failovers = count "supervisor.failovers" in
      check_bool "demotion counted with tracing off" true (demotions >= 1);
      (* the same campaign traced marks every demotion [failover:mg] and
         every supervisor failover [failover:<kernel>]: the untraced
         supervisor.failovers must match the latter alone *)
      ignore (faulted true : float);
      let failover_markers =
        List.filter_map
          (fun e ->
            if String.starts_with ~prefix:"failover:" e.Trace.name then
              Some e.Trace.name
            else None)
          (Trace.events ())
      in
      Trace.clear ();
      let markers keep = List.length (List.filter keep failover_markers) in
      check_int "one failover:mg marker per demotion" demotions
        (markers (fun n -> n = "failover:mg"));
      check_int "supervisor.failovers excludes the demotions" failovers
        (markers (fun n -> n <> "failover:mg"));
      check_bool
        (Printf.sprintf "healed: %.3e vs clean %.3e" faulted_r clean_r)
        true
        (Float.is_finite faulted_r && faulted_r <= 2. *. clean_r))

(* -------------------------------------------- end-to-end: rank recovery *)

let test_spmd_kill_and_recover () =
  clean (fun () ->
      Jit.clear_cache ();
      let t = Spmd.create ~rank_grid:[ 2; 2 ] ~local_n:8 in
      Spmd.fill_interior t ~base:"f" (fun x ->
          sin (10. *. x.(0)) +. cos (7. *. x.(1)));
      Spmd.init_dinv t;
      let smooth = Spmd.gsrb_smooth_group t in
      for _ = 1 to 4 do
        Spmd.run_group t smooth
      done;
      let before = Spmd.gather t ~base:"u" in
      Spmd.kill_rank t [| 1; 0 |];
      check_int "one dead rank" 1 (List.length (Spmd.dead_ranks t));
      (* survivors keep sweeping around the hole *)
      Spmd.run_group t (Spmd.gsrb_smooth_group t);
      check_int "recovered" 1 (Spmd.recover t);
      check_int "no dead ranks left" 0 (List.length (Spmd.dead_ranks t));
      let after = Spmd.gather t ~base:"u" in
      let n = Mesh.size after in
      let max_err = ref 0. in
      for i = 0 to n - 1 do
        let v = Mesh.get_flat after i in
        check_bool "finite after recovery" true (Float.is_finite v);
        max_err := Float.max !max_err (Float.abs (v -. Mesh.get_flat before i))
      done;
      (* the reconstruction is an approximation, but it must be in the
         neighbourhood of the lost solution, not garbage *)
      let scale =
        Array.fold_left
          (fun acc i -> Float.max acc (Float.abs (Mesh.get_flat before i)))
          0.
          (Array.init n (fun i -> i))
      in
      check_bool
        (Printf.sprintf "reconstruction close (max err %.3e, scale %.3e)"
           !max_err scale)
        true
        (!max_err <= 0.5 *. Float.max scale 1e-12))

let () =
  Alcotest.run "sf_resilience"
    [
      ( "fault",
        [
          Alcotest.test_case "spec round-trip" `Quick test_fault_parse_roundtrip;
          Alcotest.test_case "malformed specs rejected" `Quick
            test_fault_parse_rejects;
          Alcotest.test_case "nth + count triggers" `Quick
            test_fault_nth_and_count;
          Alcotest.test_case "match filter" `Quick test_fault_match_filter;
          Alcotest.test_case "probability deterministic" `Quick
            test_fault_probability_deterministic;
          Alcotest.test_case "fire raises Injected" `Quick
            test_fault_fire_raises;
        ] );
      ( "guard",
        [
          Alcotest.test_case "scan trips on NaN/Inf" `Quick test_guard_scan;
          Alcotest.test_case "effective mode precedence" `Quick
            test_guard_effective_modes;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "retry heals transient" `Quick
            test_supervisor_retry_heals;
          Alcotest.test_case "failover on persistent" `Quick
            test_supervisor_failover;
          Alcotest.test_case "fatal never absorbed" `Quick
            test_supervisor_fatal_not_absorbed;
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "ring semantics" `Quick test_checkpoint_ring ] );
      ( "kernel",
        [
          Alcotest.test_case "param_lookup names stencil" `Quick
            test_param_lookup_names_stencil;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "mg rollback heals" `Quick
            test_mg_solve_resilient_heals;
          Alcotest.test_case "spmd rank recovery" `Quick
            test_spmd_kill_and_recover;
        ] );
    ]
