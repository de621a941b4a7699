(* Faultpoint: named, seeded, probability/occurrence-triggered fault sites.

   The execution layer registers a handful of choke points — "kernel"
   (Jit's kernel wrapper), "chunk" (pool chunk execution), "wave" (backend
   waves), "halo" (Spmd exchange sweeps), "mg" (multigrid phases), "rank"
   (Spmd rank death) — and consults the armed clause set on each pass.
   When nothing is armed, every site costs one atomic load and a branch,
   mirroring the sf_trace discipline. *)

module Trace = Sf_trace.Trace

type kind =
  | Raise
  | Transient
  | Nan_poison
  | Inf_poison
  | Kill_rank
  | Delay of float
  | Fatal

let kind_name = function
  | Raise -> "raise"
  | Transient -> "transient"
  | Nan_poison -> "nan"
  | Inf_poison -> "inf"
  | Kill_rank -> "kill"
  | Delay s -> Printf.sprintf "delay=%g" s
  | Fatal -> "fatal"

exception Injected of { site : string; kind : kind; detail : string }

let () =
  Printexc.register_printer (function
    | Injected { site; kind; detail } ->
        Some
          (Printf.sprintf "Fault.Injected: %s fault at site %s (%s)"
             (kind_name kind) site detail)
    | _ -> None)

type clause = {
  site : string;
  kind : kind;
  prob : float option;  (* @p= per-occurrence probability *)
  nth : int option;  (* @n= fire exactly on the n-th occurrence *)
  count : int;  (* @count= max firings; -1 = unlimited *)
  matches : string option;  (* @match= substring the detail must contain *)
  seed : int;  (* @seed= for the probability draw *)
  occ : int Atomic.t;
  fired : int Atomic.t;
}

(* -------------------------------------------------------------- parsing *)

(* spec   ::= clause (',' clause)*
   clause ::= site ':' kind ('@' key '=' value)*
   kind   ::= raise | transient | nan | inf | kill | delay=SECONDS | fatal
   key    ::= p | n | count | seed | match          (count accepts "inf") *)

let default_count = function
  | Raise -> -1 (* persistent: every matching occurrence faults *)
  | Transient -> 3 (* heals after three firings — what retry absorbs *)
  | _ -> 1

let parse_kind s =
  match s with
  | "raise" -> Ok Raise
  | "transient" -> Ok Transient
  | "nan" -> Ok Nan_poison
  | "inf" -> Ok Inf_poison
  | "kill" -> Ok Kill_rank
  | "fatal" -> Ok Fatal
  | _ -> (
      match String.index_opt s '=' with
      | Some i when String.sub s 0 i = "delay" -> (
          let v = String.sub s (i + 1) (String.length s - i - 1) in
          match float_of_string_opt v with
          | Some f when f >= 0. -> Ok (Delay f)
          | _ -> Error (Printf.sprintf "bad delay %S" v))
      | _ ->
          Error
            (Printf.sprintf
               "unknown fault kind %S (raise|transient|nan|inf|kill|delay=S|fatal)" s))

let parse_clause text =
  match String.split_on_char '@' (String.trim text) with
  | [] | [ "" ] -> Error "empty clause"
  | head :: params -> (
      match String.index_opt head ':' with
      | None -> Error (Printf.sprintf "clause %S lacks site:kind" head)
      | Some i -> (
          let site = String.trim (String.sub head 0 i) in
          let kind_s =
            String.trim (String.sub head (i + 1) (String.length head - i - 1))
          in
          if site = "" then Error (Printf.sprintf "clause %S lacks a site" text)
          else
            match parse_kind kind_s with
            | Error e -> Error e
            | Ok kind -> (
                let init =
                  {
                    site;
                    kind;
                    prob = None;
                    nth = None;
                    count = default_count kind;
                    matches = None;
                    seed = 1;
                    occ = Atomic.make 0;
                    fired = Atomic.make 0;
                  }
                in
                let apply acc p =
                  match acc with
                  | Error _ -> acc
                  | Ok c -> (
                      match String.index_opt p '=' with
                      | None -> Error (Printf.sprintf "bad parameter %S" p)
                      | Some j -> (
                          let key = String.sub p 0 j in
                          let v =
                            String.sub p (j + 1) (String.length p - j - 1)
                          in
                          match key with
                          | "p" -> (
                              match float_of_string_opt v with
                              | Some f when f >= 0. && f <= 1. ->
                                  Ok { c with prob = Some f }
                              | _ -> Error (Printf.sprintf "bad p=%S" v))
                          | "n" -> (
                              match int_of_string_opt v with
                              | Some n when n >= 1 -> Ok { c with nth = Some n }
                              | _ -> Error (Printf.sprintf "bad n=%S" v))
                          | "count" -> (
                              if v = "inf" then Ok { c with count = -1 }
                              else
                                match int_of_string_opt v with
                                | Some n when n >= 0 -> Ok { c with count = n }
                                | _ -> Error (Printf.sprintf "bad count=%S" v))
                          | "seed" -> (
                              match int_of_string_opt v with
                              | Some n -> Ok { c with seed = n }
                              | _ -> Error (Printf.sprintf "bad seed=%S" v))
                          | "match" ->
                              if v = "" then Error "empty match="
                              else Ok { c with matches = Some v }
                          | _ ->
                              Error
                                (Printf.sprintf
                                   "unknown parameter %S (p|n|count|seed|match)"
                                   key)))
                in
                List.fold_left apply (Ok init) params)))

let parse spec =
  let parts =
    List.filter
      (fun s -> String.trim s <> "")
      (String.split_on_char ',' spec)
  in
  if parts = [] then Error "empty fault spec"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match parse_clause p with
          | Ok c -> go (c :: acc) rest
          | Error e -> Error (Printf.sprintf "clause %S: %s" p e))
    in
    go [] parts

let clause_to_string c =
  let b = Buffer.create 32 in
  Buffer.add_string b (c.site ^ ":" ^ kind_name c.kind);
  Option.iter (fun p -> Buffer.add_string b (Printf.sprintf "@p=%g" p)) c.prob;
  Option.iter (fun n -> Buffer.add_string b (Printf.sprintf "@n=%d" n)) c.nth;
  if c.count <> default_count c.kind then
    Buffer.add_string b
      (if c.count < 0 then "@count=inf" else Printf.sprintf "@count=%d" c.count);
  Option.iter (fun m -> Buffer.add_string b ("@match=" ^ m)) c.matches;
  if c.seed <> 1 then Buffer.add_string b (Printf.sprintf "@seed=%d" c.seed);
  Buffer.contents b

let to_string clauses = String.concat "," (List.map clause_to_string clauses)

(* ------------------------------------------------------------- arming *)

let armed_flag = Atomic.make false
let clauses : clause list Atomic.t = Atomic.make []
let injected_c = Sf_trace.Metrics.counter "fault.injected"

let armed () = Atomic.get armed_flag

let arm cs =
  Atomic.set clauses cs;
  Atomic.set armed_flag (cs <> [])

let disarm () = arm []
let spec () = to_string (Atomic.get clauses)

let arm_string s =
  match parse s with
  | Ok cs ->
      arm cs;
      Ok ()
  | Error e -> Error e

let arm_exn s =
  match arm_string s with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Fault.arm: bad SF_FAULTS spec: %s" e)

let () =
  match Sys.getenv_opt "SF_FAULTS" with
  | Some s when String.trim s <> "" -> arm_exn s
  | _ -> ()

(* ------------------------------------------------------------ triggering *)

(* splitmix64 finalizer: the probability draw is a pure function of
   (seed, occurrence), so campaigns replay identically regardless of which
   domain reaches the site — only the interleaving of the occurrence
   counter is scheduling-dependent. *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xff51afd7ed558ccdL
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xc4ceb9fe1a85ec53L
  in
  Int64.logxor z (Int64.shift_right_logical z 33)

let uniform ~seed ~occ =
  let h =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
         (Int64.of_int occ))
  in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    at 0

let note_injection c ~site ~detail =
  Atomic.incr injected_c;
  if Trace.on () then
    Trace.record_span
      ~args:
        [
          ("kind", Trace.Str (kind_name c.kind));
          ("detail", Trace.Str detail);
        ]
      Trace.Phase
      ("fault:" ^ site ^ ":" ^ kind_name c.kind)
      ~ts_us:(Trace.now_us ()) ~dur_us:0.

let check ~site ~detail =
  if not (Atomic.get armed_flag) then None
  else
    let rec go = function
      | [] -> None
      | c :: rest ->
          if
            c.site <> site
            || match c.matches with
               | Some m -> not (contains ~sub:m detail)
               | None -> false
          then go rest
          else
            let occ = 1 + Atomic.fetch_and_add c.occ 1 in
            let triggered =
              (c.count < 0 || Atomic.get c.fired < c.count)
              && (match c.nth with Some n -> occ = n | None -> true)
              && match c.prob with
                 | Some p -> uniform ~seed:c.seed ~occ < p
                 | None -> true
            in
            if triggered then begin
              Atomic.incr c.fired;
              note_injection c ~site ~detail;
              Some c.kind
            end
            else go rest
    in
    go (Atomic.get clauses)

let fire ~site ~detail =
  match check ~site ~detail with
  | None -> None
  | Some ((Raise | Transient) as kind) -> raise (Injected { site; kind; detail })
  | Some (Delay s) ->
      Unix.sleepf s;
      Some (Delay s)
  | Some Fatal ->
      raise (Assert_failure (Printf.sprintf "injected fatal fault at %s (%s)" site detail, 0, 0))
  | Some kind -> Some kind
