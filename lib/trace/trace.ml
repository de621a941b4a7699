type kind = Compile | Certify | Wave | Kernel | Chunk | Vcycle | Phase

let kind_name = function
  | Compile -> "compile"
  | Certify -> "certify"
  | Wave -> "wave"
  | Kernel -> "kernel"
  | Chunk -> "chunk"
  | Vcycle -> "vcycle"
  | Phase -> "phase"

type arg = Int of int | Float of float | Str of string

type event = {
  kind : kind;
  name : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  args : (string * arg) list;
}

(* ------------------------------------------------------------- enabling *)

let env_flag name =
  match Sys.getenv_opt name with
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "1" | "true" | "yes" | "on" -> true
      | _ -> false)
  | None -> false

let enabled = Atomic.make (env_flag "SF_TRACE")
let on () = Atomic.get enabled
let set_enabled b = Atomic.set enabled b

let with_enabled b f =
  let prev = Atomic.get enabled in
  Atomic.set enabled b;
  Fun.protect f ~finally:(fun () -> Atomic.set enabled prev)

(* ------------------------------------------------------------ the clock *)

let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

(* -------------------------------------------------------- roofline join *)

(* bits-of-float in an Atomic: settable from any domain without a lock *)
let bandwidth_bits = Atomic.make (Int64.bits_of_float 0.)
let set_bandwidth_gbs gbs =
  Atomic.set bandwidth_bits (Int64.bits_of_float (Float.max gbs 0.))
let bandwidth_gbs () = Int64.float_of_bits (Atomic.get bandwidth_bits)

(* --------------------------------------------------------- event buffer *)

let mu = Mutex.create ()
let events_rev : event list ref = ref []
let n_events = ref 0
let dropped_c = ref 0
let max_events = 2_000_000

let float_arg = function
  | Some (Int i) -> Some (float_of_int i)
  | Some (Float f) -> Some f
  | _ -> None

(* Kernel spans that declare their analytic byte traffic are joined
   against the declared machine bandwidth at record time: % of peak =
   roofline-predicted duration / achieved duration. *)
let annotate_roofline ev =
  if ev.kind <> Kernel then ev
  else
    let bw = bandwidth_gbs () in
    match float_arg (List.assoc_opt "bytes" ev.args) with
    | Some bytes when bw > 0. && ev.dur_us > 0. ->
        let predicted_us = bytes /. (bw *. 1e9) *. 1e6 in
        {
          ev with
          args =
            ev.args @ [ ("pct_roofline_peak", Float (100. *. predicted_us /. ev.dur_us)) ];
        }
    | _ -> ev

let record ev =
  let ev = annotate_roofline ev in
  Mutex.lock mu;
  if !n_events >= max_events then incr dropped_c
  else begin
    events_rev := ev :: !events_rev;
    incr n_events
  end;
  Mutex.unlock mu

let record_span ?(args = []) kind name ~ts_us ~dur_us =
  if on () then
    record
      { kind; name; ts_us; dur_us; tid = (Domain.self () :> int); args }

let span ?(args = []) kind name f =
  if not (on ()) then f ()
  else begin
    let t0 = now_us () in
    Fun.protect f ~finally:(fun () ->
        record_span ~args kind name ~ts_us:t0 ~dur_us:(now_us () -. t0))
  end

let events () =
  Mutex.lock mu;
  let evs = List.rev !events_rev in
  Mutex.unlock mu;
  evs

let dropped () =
  Mutex.lock mu;
  let d = !dropped_c in
  Mutex.unlock mu;
  d

let clear () =
  Mutex.lock mu;
  events_rev := [];
  n_events := 0;
  dropped_c := 0;
  Mutex.unlock mu

(* ---------------------------------------------------------- aggregation *)

type agg = {
  akind : kind;
  aname : string;
  calls : int;
  total_us : float;
  acells : float;
  aflops : float;
  abytes : float;
}

let summary () =
  let table : (kind * string, agg ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun ev ->
      let key = (ev.kind, ev.name) in
      let a =
        match Hashtbl.find_opt table key with
        | Some a -> a
        | None ->
            let a =
              ref
                {
                  akind = ev.kind;
                  aname = ev.name;
                  calls = 0;
                  total_us = 0.;
                  acells = 0.;
                  aflops = 0.;
                  abytes = 0.;
                }
            in
            Hashtbl.replace table key a;
            order := a :: !order;
            a
      in
      let num k = Option.value ~default:0. (float_arg (List.assoc_opt k ev.args)) in
      a :=
        {
          !a with
          calls = !a.calls + 1;
          total_us = !a.total_us +. ev.dur_us;
          acells = !a.acells +. num "cells";
          aflops = !a.aflops +. num "flops";
          abytes = !a.abytes +. num "bytes";
        })
    (events ());
  List.rev_map ( ! ) !order
  |> List.sort (fun a b -> Float.compare b.total_us a.total_us)

(* --------------------------------------------------------- Chrome export *)

let json_of_arg = function
  | Int i -> Json.Num (float_of_int i)
  | Float f -> Json.Num f
  | Str s -> Json.Str s

let json_of_event ev =
  Json.Obj
    [
      ("name", Json.Str ev.name);
      ("cat", Json.Str (kind_name ev.kind));
      ("ph", Json.Str "X");
      ("ts", Json.Num ev.ts_us);
      ("dur", Json.Num ev.dur_us);
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int ev.tid));
      ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) ev.args));
    ]

(* stamped at the end of the last recorded span, not at export time, so
   exporting the same trace twice yields byte-identical documents *)
let counter_event ~ts =
  Json.Obj
    [
      ("name", Json.Str "sf_counters");
      ("cat", Json.Str "counter");
      ("ph", Json.Str "C");
      ("ts", Json.Num ts);
      ("pid", Json.Num 1.);
      ("tid", Json.Num 0.);
      ("args", Metrics.counters_json (Metrics.snapshot ()));
    ]

let to_chrome_json () =
  let evs = events () in
  let last_ts =
    List.fold_left (fun acc e -> Float.max acc (e.ts_us +. e.dur_us)) 0. evs
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.map json_of_event evs @ [ counter_event ~ts:last_ts ]) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_chrome_json path =
  let oc = open_out path in
  Fun.protect
    (fun () -> output_string oc (Json.to_string (to_chrome_json ())))
    ~finally:(fun () -> close_out oc)
