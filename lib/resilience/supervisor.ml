(* Supervised execution: bounded-backoff retry within an ordered failover
   chain of attempts.  The generic machinery lives here; the Jit-specific
   glue (compiling the same stencil group on the next backend) is
   [Sf_backends.Supervise]. *)

module Trace = Sf_trace.Trace

type policy = {
  retries : int;
  backoff_us : float;
  backoff_factor : float;
  max_backoff_us : float;
}

let default_policy =
  { retries = 2; backoff_us = 200.; backoff_factor = 4.; max_backoff_us = 20_000. }

let retries_c = Sf_trace.Metrics.counter "supervisor.retries"
let failovers_c = Sf_trace.Metrics.counter "supervisor.failovers"

(* Runtime-state corruption must not be absorbed by the failover chain. *)
let fatal = function
  | Out_of_memory | Stack_overflow | Assert_failure _ -> true
  | _ -> false

let marker ~args name =
  Trace.record_span ~args Trace.Phase name ~ts_us:(Trace.now_us ()) ~dur_us:0.

let note_retry ~name ~attempt ~n e =
  Atomic.incr retries_c;
  if Trace.on () then
    marker
      ~args:
        [
          ("attempt", Trace.Str attempt);
          ("try", Trace.Int n);
          ("error", Trace.Str (Printexc.to_string e));
        ]
      ("retry:" ^ name)

let note_failover ~name ~from ~to_ e =
  Atomic.incr failovers_c;
  if Trace.on () then
    marker
      ~args:
        [
          ("from", Trace.Str from);
          ("to", Trace.Str to_);
          ("error", Trace.Str (Printexc.to_string e));
        ]
      ("failover:" ^ name)

(* ------------------------------------------ per-request failure boundary *)

type verdict = { code : string; message : string; fatal : bool }

let classifiers : (exn -> verdict option) list ref = ref []
let register_classifier f = classifiers := f :: !classifiers

let verdict_of_exn e =
  let rec first = function
    | [] -> None
    | f :: rest -> ( match f e with Some v -> Some v | None -> first rest)
  in
  match first !classifiers with
  | Some v -> v
  | None -> (
      match e with
      | Out_of_memory | Stack_overflow | Assert_failure _ ->
          { code = "fatal"; message = Printexc.to_string e; fatal = true }
      | Invalid_argument m | Failure m ->
          { code = "internal"; message = m; fatal = false }
      | e ->
          { code = "internal"; message = Printexc.to_string e; fatal = false })

let protect ~label f =
  match f () with
  | v -> Ok v
  | exception e ->
      let v = verdict_of_exn e in
      if v.fatal then raise e;
      if Trace.on () then
        marker
          ~args:
            [ ("code", Trace.Str v.code); ("error", Trace.Str v.message) ]
          ("fault-boundary:" ^ label);
      Error v

let run ?(policy = default_policy) ~name attempts =
  if attempts = [] then invalid_arg "Supervisor.run: empty attempt chain";
  let rec attempt = function
    | [] -> assert false
    | (aname, thunk) :: rest ->
        let rec tries n backoff =
          try thunk () with
          | e when fatal e -> raise e
          | e ->
              if n < policy.retries then begin
                note_retry ~name ~attempt:aname ~n:(n + 1) e;
                if backoff > 0. then Unix.sleepf (backoff *. 1e-6);
                tries (n + 1)
                  (Float.min (backoff *. policy.backoff_factor)
                     policy.max_backoff_us)
              end
              else
                match rest with
                | [] -> raise e
                | (next, _) :: _ ->
                    note_failover ~name ~from:aname ~to_:next e;
                    attempt rest
        in
        tries 0 policy.backoff_us
  in
  attempt attempts
