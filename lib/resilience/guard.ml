(* Post-wave NaN/Inf guard scans.

   A NaN born in one smoother sweep silently poisons a whole V-cycle; the
   guard catches it at the kernel boundary instead.  Sampling mode checks
   ~1024 strided points per mesh — cheap enough to leave on during a fault
   campaign; SF_GUARD=full scans every point. *)

open Sf_mesh
module Trace = Sf_trace.Trace

type mode = Off | Sample | Full

let mode_name = function Off -> "off" | Sample -> "sample" | Full -> "full"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "0" | "none" -> Some Off
  | "sample" | "1" | "on" -> Some Sample
  | "full" -> Some Full
  | _ -> None

exception Tripped of { grid : string; index : int; value : float }

let () =
  Printexc.register_printer (function
    | Tripped { grid; index; value } ->
        Some
          (Printf.sprintf
             "Guard.Tripped: non-finite value %h in grid %s at flat index %d"
             value grid index)
    | _ -> None)

let env_mode =
  match Sys.getenv_opt "SF_GUARD" with
  | Some s -> (
      match mode_of_string s with
      | Some m -> Some m
      | None ->
          invalid_arg
            (Printf.sprintf "SF_GUARD=%S: expected off|sample|full" s))
  | None -> None

(* 0 = unset, 1 = Off, 2 = Sample, 3 = Full — one atomic for lock-free
   reads from worker domains *)
let forced = Atomic.make 0

let encode = function Off -> 1 | Sample -> 2 | Full -> 3

let set_mode m = Atomic.set forced (encode m)
let clear_mode () = Atomic.set forced 0

(* Explicit {!set_mode} wins, then SF_GUARD; otherwise sampling is implied
   whenever faults are armed (a chaos run wants its guards up) and scans
   are off entirely on clean runs. *)
let effective () =
  match Atomic.get forced with
  | 1 -> Off
  | 2 -> Sample
  | 3 -> Full
  | _ -> (
      match env_mode with
      | Some m -> m
      | None -> if Fault.armed () then Sample else Off)

let active () = effective () <> Off

let trips_c = Sf_trace.Metrics.counter "guard.trips"

let trip ~name i v =
  Atomic.incr trips_c;
  if Trace.on () then
    Trace.record_span
      ~args:[ ("grid", Trace.Str name); ("index", Trace.Int i) ]
      Trace.Phase ("guard:" ^ name) ~ts_us:(Trace.now_us ()) ~dur_us:0.;
  raise (Tripped { grid = name; index = i; value = v })

let target_samples = 1024

let scan_mesh ?mode ~name m =
  let mode = match mode with Some m -> m | None -> effective () in
  match mode with
  | Off -> ()
  | Full ->
      let n = Mesh.size m in
      for i = 0 to n - 1 do
        let v = Mesh.get_flat m i in
        if not (Float.is_finite v) then trip ~name i v
      done
  | Sample ->
      let n = Mesh.size m in
      if n > 0 then begin
        let stride = max 1 (n / target_samples) in
        let i = ref 0 in
        while !i < n do
          let v = Mesh.get_flat m !i in
          if not (Float.is_finite v) then trip ~name !i v;
          i := !i + stride
        done;
        let v = Mesh.get_flat m (n - 1) in
        if not (Float.is_finite v) then trip ~name (n - 1) v
      end

let scan_grids ?mode grids names =
  let mode = match mode with Some m -> m | None -> effective () in
  if mode <> Off then
    List.iter
      (fun name ->
        match Grids.find_opt grids name with
        | Some m -> scan_mesh ~mode ~name m
        | None -> ())
      names
