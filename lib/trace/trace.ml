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

(* ------------------------------------------------------------- counters *)

type counter =
  | Cells_updated
  | Chunks_dispatched
  | Chunks_stolen
  | Inline_fallbacks
  | Cache_hits
  | Cache_misses
  | Faults_injected
  | Retries
  | Failovers
  | Rollbacks
  | Guard_trips
  | Tasks_skipped
  | Rank_recoveries
  | Tune_db_hits
  | Tune_db_misses
  | Channel_sends
  | Channel_stalls
  | Native_promotions
  | Native_compiles
  | Native_compile_ms
  | Native_disk_hits
  | Native_failures
  | Native_structures

let cells_c = Atomic.make 0
let chunks_c = Atomic.make 0
let stolen_c = Atomic.make 0
let inline_c = Atomic.make 0
let hits_c = Atomic.make 0
let misses_c = Atomic.make 0
let faults_c = Atomic.make 0
let retries_c = Atomic.make 0
let failovers_c = Atomic.make 0
let rollbacks_c = Atomic.make 0
let guard_trips_c = Atomic.make 0
let skipped_c = Atomic.make 0
let recoveries_c = Atomic.make 0
let tune_hits_c = Atomic.make 0
let tune_misses_c = Atomic.make 0
let chan_sends_c = Atomic.make 0
let chan_stalls_c = Atomic.make 0
let native_promotions_c = Atomic.make 0
let native_compiles_c = Atomic.make 0
let native_compile_ms_c = Atomic.make 0
let native_disk_hits_c = Atomic.make 0
let native_failures_c = Atomic.make 0
let native_structures_c = Atomic.make 0

let cell_of = function
  | Cells_updated -> cells_c
  | Chunks_dispatched -> chunks_c
  | Chunks_stolen -> stolen_c
  | Inline_fallbacks -> inline_c
  | Cache_hits -> hits_c
  | Cache_misses -> misses_c
  | Faults_injected -> faults_c
  | Retries -> retries_c
  | Failovers -> failovers_c
  | Rollbacks -> rollbacks_c
  | Guard_trips -> guard_trips_c
  | Tasks_skipped -> skipped_c
  | Rank_recoveries -> recoveries_c
  | Tune_db_hits -> tune_hits_c
  | Tune_db_misses -> tune_misses_c
  | Channel_sends -> chan_sends_c
  | Channel_stalls -> chan_stalls_c
  | Native_promotions -> native_promotions_c
  | Native_compiles -> native_compiles_c
  | Native_compile_ms -> native_compile_ms_c
  | Native_disk_hits -> native_disk_hits_c
  | Native_failures -> native_failures_c
  | Native_structures -> native_structures_c

let add c n = if on () then ignore (Atomic.fetch_and_add (cell_of c) n)
let note c n = ignore (Atomic.fetch_and_add (cell_of c) n)

type counters = {
  cells_updated : int;
  chunks_dispatched : int;
  chunks_stolen : int;
  inline_fallbacks : int;
  cache_hits : int;
  cache_misses : int;
  faults_injected : int;
  retries : int;
  failovers : int;
  rollbacks : int;
  guard_trips : int;
  tasks_skipped : int;
  rank_recoveries : int;
  tune_db_hits : int;
  tune_db_misses : int;
  channel_sends : int;
  channel_stalls : int;
  native_promotions : int;
  native_compiles : int;
  native_compile_ms : int;
  native_disk_hits : int;
  native_failures : int;
  native_structures : int;
}

let counters () =
  {
    cells_updated = Atomic.get cells_c;
    chunks_dispatched = Atomic.get chunks_c;
    chunks_stolen = Atomic.get stolen_c;
    inline_fallbacks = Atomic.get inline_c;
    cache_hits = Atomic.get hits_c;
    cache_misses = Atomic.get misses_c;
    faults_injected = Atomic.get faults_c;
    retries = Atomic.get retries_c;
    failovers = Atomic.get failovers_c;
    rollbacks = Atomic.get rollbacks_c;
    guard_trips = Atomic.get guard_trips_c;
    tasks_skipped = Atomic.get skipped_c;
    rank_recoveries = Atomic.get recoveries_c;
    tune_db_hits = Atomic.get tune_hits_c;
    tune_db_misses = Atomic.get tune_misses_c;
    channel_sends = Atomic.get chan_sends_c;
    channel_stalls = Atomic.get chan_stalls_c;
    native_promotions = Atomic.get native_promotions_c;
    native_compiles = Atomic.get native_compiles_c;
    native_compile_ms = Atomic.get native_compile_ms_c;
    native_disk_hits = Atomic.get native_disk_hits_c;
    native_failures = Atomic.get native_failures_c;
    native_structures = Atomic.get native_structures_c;
  }

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
  Mutex.unlock mu;
  List.iter
    (fun c -> Atomic.set c 0)
    [
      cells_c; chunks_c; stolen_c; inline_c; hits_c; misses_c; faults_c;
      retries_c; failovers_c; rollbacks_c; guard_trips_c; skipped_c;
      recoveries_c; tune_hits_c; tune_misses_c; chan_sends_c; chan_stalls_c;
      native_promotions_c; native_compiles_c; native_compile_ms_c;
      native_disk_hits_c; native_failures_c; native_structures_c;
    ]

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

(* The native-tier counters under their metric names, as the Chrome
   counter event and sfserved STATS show them. *)
let native_json c =
  List.map
    (fun (k, v) -> (k, Json.Num (float_of_int v)))
    [
      ("native.promotions", c.native_promotions);
      ("native.compiles", c.native_compiles);
      ("native.compile_ms", c.native_compile_ms);
      ("native.disk_hits", c.native_disk_hits);
      ("native.failures", c.native_failures);
      ("native.structures", c.native_structures);
    ]

(* stamped at the end of the last recorded span, not at export time, so
   exporting the same trace twice yields byte-identical documents *)
let counter_event ~ts =
  let c = counters () in
  Json.Obj
    [
      ("name", Json.Str "sf_counters");
      ("cat", Json.Str "counter");
      ("ph", Json.Str "C");
      ("ts", Json.Num ts);
      ("pid", Json.Num 1.);
      ("tid", Json.Num 0.);
      ( "args",
        Json.Obj
          ([
            ("cells_updated", Json.Num (float_of_int c.cells_updated));
            ("chunks_dispatched", Json.Num (float_of_int c.chunks_dispatched));
            ("chunks_stolen", Json.Num (float_of_int c.chunks_stolen));
            ("inline_fallbacks", Json.Num (float_of_int c.inline_fallbacks));
            ("cache_hits", Json.Num (float_of_int c.cache_hits));
            ("cache_misses", Json.Num (float_of_int c.cache_misses));
            ("faults_injected", Json.Num (float_of_int c.faults_injected));
            ("retries", Json.Num (float_of_int c.retries));
            ("failovers", Json.Num (float_of_int c.failovers));
            ("rollbacks", Json.Num (float_of_int c.rollbacks));
            ("guard_trips", Json.Num (float_of_int c.guard_trips));
            ("tasks_skipped", Json.Num (float_of_int c.tasks_skipped));
            ("rank_recoveries", Json.Num (float_of_int c.rank_recoveries));
            ("tune_db_hits", Json.Num (float_of_int c.tune_db_hits));
            ("tune_db_misses", Json.Num (float_of_int c.tune_db_misses));
            ("channel_sends", Json.Num (float_of_int c.channel_sends));
            ("channel_stalls", Json.Num (float_of_int c.channel_stalls));
          ]
          @ native_json c) );
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
