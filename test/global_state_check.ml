(* Regression probe: compiling a kernel must not touch process state.

   Tracing and fault arming are process-wide switches owned by
   [Sf_trace.Trace] and [Sf_resilience.Fault]; [Jit.compile] is a pure,
   cached function of (backend, shape, group, config, reps).  Each mode
   runs in a process whose environment sets the switch (see test/dune):

   - [faults], under SF_FAULTS="chunk:raise@count=1": the clause fires
     once through a two-task batch, a kernel is compiled, and the same
     batch must then run clean.  A compile that re-armed the spec would
     reset the clause's firing budget, so it would fire a second time.
   - [trace], under SF_TRACE=1: a kernel compiled inside
     [Trace.with_enabled false] must leave tracing off. *)

open Sf_backends
open Snowflake

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("global_state_check: " ^ m);
      exit 1)
    fmt

let compile_one label =
  let copy =
    Stencil.make ~label ~output:"out"
      ~expr:(Expr.read "in" (Sf_util.Ivec.of_list [ 0 ]))
      ~domain:(Domain.interior 1 ~ghost:1)
      ()
  in
  ignore
    (Jit.compile Jit.Compiled ~shape:(Sf_util.Ivec.of_list [ 8 ])
       (Group.make ~label [ copy ]))

let faults () =
  if not (Sf_resilience.Fault.armed ()) then fail "SF_FAULTS did not arm";
  let pool = Pool.create ~workers:2 in
  let batch () = Pool.run_tasks pool [| ignore; ignore |] in
  (match batch () with
  | () -> fail "the chunk clause never fired"
  | exception Sf_resilience.Fault.Injected _ -> ());
  compile_one "global_state_faults";
  match batch () with
  | () -> print_endline "global_state_check: faults ok"
  | exception Sf_resilience.Fault.Injected _ ->
      fail "a count=1 clause fired twice: compiling re-armed SF_FAULTS"

let trace () =
  if not (Sf_trace.Trace.on ()) then fail "SF_TRACE did not enable tracing";
  let on =
    Sf_trace.Trace.with_enabled false (fun () ->
        compile_one "global_state_trace";
        Sf_trace.Trace.on ())
  in
  if on then fail "compiling switched tracing back on"
  else print_endline "global_state_check: trace ok"

let () =
  match Sys.argv with
  | [| _; "faults" |] -> faults ()
  | [| _; "trace" |] -> trace ()
  | _ -> fail "usage: global_state_check.exe (faults|trace)"
