(* The counter catalogue cannot drift from the code: exercise the pool,
   the JIT, the resilience layer and the native tier, link sfserved's
   server, then require every counter in the metrics registry to be named
   in the first column of the "Counter catalogue" table of the
   observability doc given as the only argument.  Exits 1, naming each
   undocumented counter, otherwise. *)

open Sf_backends
open Sf_hpgmg
module Metrics = Sf_trace.Metrics
module Fault = Sf_resilience.Fault

(* backticked names in the first cell of each table row of the section *)
let catalogue path =
  let rec rows inside = function
    | [] -> []
    | l :: rest when String.starts_with ~prefix:"## " l ->
        if inside then [] else rows (String.trim l = "## Counter catalogue") rest
    | l :: rest when inside && String.starts_with ~prefix:"|" l -> (
        match String.split_on_char '|' l with
        | _ :: first :: _ -> first :: rows inside rest
        | _ -> rows inside rest)
    | _ :: rest -> rows inside rest
  in
  In_channel.with_open_text path In_channel.input_lines
  |> rows false
  |> List.concat_map (fun cell ->
         List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' cell))

let () =
  let doc = Sys.argv.(1) in
  let config =
    {
      Mg.default_config with
      Mg.backend = Jit.Openmp;
      jit = { (Config.with_workers 2 Config.default) with Config.serial_cutoff = 1 };
    }
  in
  let solver = Mg.create ~config ~n:8 () in
  Problem.setup_poisson (Mg.finest solver);
  (* a NaN mid-solve rolls back and demotes; a raising kernel is retried *)
  Fault.arm_exn "mg:nan@n=2@count=1,kernel:raise@count=1";
  Native.with_mode Native.Force (fun () ->
      ignore (Mg.solve_resilient ~cycles:3 solver : float array));
  Fault.disarm ();
  (* sfserved registers its own counters when its module is linked *)
  let server = Sf_serve.Server.create () in
  Sf_serve.Server.stop server;
  Sf_serve.Server.join server;
  let counters = (Metrics.snapshot ()).Metrics.counters in
  let idle =
    List.filter
      (fun name -> List.assoc_opt name counters = Some 0)
      [ "pool.chunks"; "jit.hits"; "fault.injected"; "native.structures" ]
  in
  List.iter (Printf.eprintf "metrics_doc_check: %s was not exercised\n") idle;
  let documented = catalogue doc in
  let missing =
    List.filter (fun (name, _) -> not (List.mem name documented)) counters
  in
  List.iter
    (fun (name, _) ->
      Printf.eprintf "metrics_doc_check: counter %s is missing from %s\n" name doc)
    missing;
  if idle <> [] || missing <> [] then exit 1;
  Printf.printf "metrics_doc_check: %d counters, all in the catalogue\n"
    (List.length counters)
