(* One of several processes promoting the same structures into the cache
   directory given on the command line at the same time.  Exits 0 when
   every structure ran natively (nothing failed to build or load) and the
   solve matched the closure tier bit for bit. *)

open Sf_backends
open Sf_hpgmg
module Mesh = Sf_mesh.Mesh
module Metrics = Sf_trace.Metrics

let solve mode =
  let s = Mg.create ~n:16 () in
  Problem.setup_variable ~seed:3 (Mg.finest s);
  Mg.set_beta s Problem.beta_smooth;
  Native.with_mode mode (fun () -> Mg.vcycle s);
  Mesh.data (Level.u (Mg.finest s))

let () =
  Native.set_cache_dir Sys.argv.(1);
  let native = solve Native.Force and closure = solve Native.Off in
  let same = ref (Float.Array.length native = Float.Array.length closure) in
  Float.Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float (Float.Array.get closure i) then
        same := false)
    native;
  let count name = Atomic.get (Metrics.counter ("native." ^ name)) in
  List.iter (prerr_endline) (Native.failures ());
  if not !same then prerr_endline "native_race_check: native differs from closure";
  if !same && count "failures" = 0 && count "promotions" > 0 then exit 0
  else exit 1
