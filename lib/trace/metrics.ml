(* The metrics registry: name-keyed counters, gauges and series.

   One module-wide mutex guards the three tables and every gauge or
   series write; a sample is a handful of field updates, so contention is
   negligible next to the solves being measured.  Counters are bare
   atomics and never take the lock after registration.  Percentiles copy
   the live window under the lock and sort outside it. *)

open Sf_util

let mx = Mutex.create ()
let locked f = Mutex.protect mx f

let register table make name =
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some m -> m
      | None ->
          let m = make name in
          Hashtbl.add table name m;
          m)

let sorted table key =
  locked (fun () -> Hashtbl.fold (fun name m acc -> (name, m) :: acc) table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map key

(* -------------------------------------------------------------- counters *)

let counters : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 64
let counter = register counters (fun _ -> Atomic.make 0)

(* ---------------------------------------------------------------- gauges *)

type gauge = { mutable cur : int; mutable hwm : int }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let gauge = register gauges (fun _ -> { cur = 0; hwm = 0 })

let gauge_set g v =
  locked (fun () ->
      g.cur <- v;
      if v > g.hwm then g.hwm <- v)

(* ---------------------------------------------------------------- series *)

type series = {
  name : string;
  cap : int;
  buf : float array;  (* ring of the last [cap] samples *)
  mutable n : int;  (* lifetime observations *)
  mutable maxv : float;
}

let all_series : (string, series) Hashtbl.t = Hashtbl.create 16

let series ?(capacity = 4096) name =
  register all_series
    (fun name ->
      let cap = max 16 capacity in
      { name; cap; buf = Array.make cap 0.; n = 0; maxv = nan })
    name

let observe (s : series) v =
  locked (fun () ->
      s.buf.(s.n mod s.cap) <- v;
      s.n <- s.n + 1;
      if not (v <= s.maxv) then s.maxv <- v)

type summary = {
  sname : string;
  n : int;
  p50 : float;
  p90 : float;
  p99 : float;
  smax : float;
  smean : float;
}

let summary (s : series) =
  let w, n, maxv =
    locked (fun () -> (Array.sub s.buf 0 (min s.n s.cap), s.n, s.maxv))
  in
  let over f = if Array.length w = 0 then nan else f w in
  {
    sname = s.name;
    n;
    p50 = over (Stats.percentile 50.);
    p90 = over (Stats.percentile 90.);
    p99 = over (Stats.percentile 99.);
    smax = maxv;
    smean = over Stats.mean;
  }

(* -------------------------------------------------------------- snapshot *)

type reading = { level : int; hwm : int }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * reading) list;
  series : summary list;
}

let snapshot () =
  {
    counters = sorted counters (fun (name, c) -> (name, Atomic.get c));
    gauges =
      sorted gauges (fun (name, (g : gauge)) ->
          (name, locked (fun () -> { level = g.cur; hwm = g.hwm })));
    series = sorted all_series (fun (_, s) -> summary s);
  }

let counters_json snap =
  Json.Obj
    (List.map
       (fun (name, v) -> (name, Json.Num (float_of_int v)))
       snap.counters)

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
      Hashtbl.iter (fun _ (g : gauge) -> g.hwm <- g.cur) gauges;
      Hashtbl.iter
        (fun _ (s : series) ->
          s.n <- 0;
          s.maxv <- nan;
          Array.fill s.buf 0 s.cap 0.)
        all_series)
