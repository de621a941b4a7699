(* Persistent work-sharing domain pool.

   One process-wide set of worker domains stands in for the paper's
   persistent OpenMP thread team.  Batches are published through a single
   epoch-stamped slot:

     submitter                         worker (parked on [work_available])
     ---------                         -----------------------------------
     ensure helpers spawned            wait while epoch = last seen
     slot := job; epoch++ ------------> wake, read (epoch, slot) under lock
     broadcast                          take a ticket (participation cap)
     drain chunks via [job.next]        drain chunks via [job.next]
     wait pending = 0 <---------------- last chunk broadcasts [quiescent]
     slot := None; reraise failure      park again

   The join is a fence on [job.pending], not a [Domain.join]: domains are
   spawned once (lazily) and reused by every kernel in the process. *)

module Trace = Sf_trace.Trace
module Metrics = Sf_trace.Metrics
module Fault = Sf_resilience.Fault

type job = {
  fn : int -> unit;  (* execute chunk [i] *)
  chunks : int;
  next : int Atomic.t;  (* work index: dynamic task farming *)
  pending : int Atomic.t;  (* chunks not yet finished *)
  failed : exn option Atomic.t;  (* first failure aborts the batch *)
  helper_cap : int;  (* max worker domains that may participate *)
  tickets : int Atomic.t;
}

let lock = Mutex.create ()
let work_available = Condition.create ()  (* new epoch, or shutdown *)
let quiescent = Condition.create ()  (* batch finished / slot freed *)
let epoch = ref 0
let slot : job option ref = ref None
let shutting_down = ref false
let helpers : unit Domain.t list ref = ref []

(* The OCaml runtime supports ~128 concurrent domains; stay well below so
   user code can spawn its own. *)
let max_helpers = 120

(* -------------------------------------------------------------- metrics *)

(* Always counted, tracing or not.  [pool.chunks] counts every chunk a
   dispatched batch drains, run or skipped, so after a join it equals the
   chunks published. *)
let spawned_c = Metrics.counter "pool.spawned"
let batches_c = Metrics.counter "pool.batches"
let chunks_c = Metrics.counter "pool.chunks"
let stolen_c = Metrics.counter "pool.stolen"
let inline_c = Metrics.counter "pool.inline"
let skipped_c = Metrics.counter "pool.skipped"
let live_g = Metrics.gauge "pool.live_domains"

(* ------------------------------------------------------- chunk execution *)

(* Set while a domain executes pool chunks, so a re-entrant submission from
   inside a task degrades to inline execution instead of deadlocking on the
   single publication slot. *)
let in_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let run_chunks ~stolen job =
  let flag = Domain.DLS.get in_task in
  flag := true;
  let rec loop () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.chunks then begin
      (match Atomic.get job.failed with
      | Some _ ->
          (* aborting: drain the index without running — but count what we
             skipped, or an aborted batch looks indistinguishable from a
             completed one in the stats *)
          Atomic.incr skipped_c
      | None -> (
          try
            if Fault.armed () then
              ignore (Fault.fire ~site:"chunk" ~detail:(string_of_int i));
            (* disabled-trace hot path: one Atomic.get and a branch *)
            if Trace.on () then
              Trace.span
                ~args:[ ("chunk", Trace.Int i) ]
                Trace.Chunk "chunk"
                (fun () -> job.fn i)
            else job.fn i
          with e -> ignore (Atomic.compare_and_set job.failed None (Some e))));
      Atomic.incr chunks_c;
      if stolen then Atomic.incr stolen_c;
      (* last finished chunk releases the submitter's fence *)
      if Atomic.fetch_and_add job.pending (-1) = 1 then begin
        Mutex.lock lock;
        Condition.broadcast quiescent;
        Mutex.unlock lock
      end;
      loop ()
    end
  in
  loop ();
  flag := false

let rec worker_loop seen =
  Mutex.lock lock;
  while (not !shutting_down) && !epoch = seen do
    Condition.wait work_available lock
  done;
  let stop = !shutting_down in
  let now = !epoch in
  let published = !slot in
  Mutex.unlock lock;
  if not stop then begin
    (match published with
    | Some job when Atomic.fetch_and_add job.tickets 1 < job.helper_cap ->
        run_chunks ~stolen:true job
    | _ -> ()  (* over the participation cap, or a stale slot: park again *));
    worker_loop now
  end

let ensure_helpers n =
  let n = min n max_helpers in
  Mutex.lock lock;
  if (not !shutting_down) && List.length !helpers < n then begin
    let seen = !epoch in
    (try
       for _ = List.length !helpers + 1 to n do
         helpers := Domain.spawn (fun () -> worker_loop seen) :: !helpers;
         Atomic.incr spawned_c
       done
     with _ -> () (* out of domains: proceed with however many we got *));
    Metrics.gauge_set live_g (List.length !helpers)
  end;
  Mutex.unlock lock

(* ------------------------------------------------------------ submission *)

let submit ~helper_cap ~chunks fn =
  let job =
    {
      fn;
      chunks;
      next = Atomic.make 0;
      pending = Atomic.make chunks;
      failed = Atomic.make None;
      helper_cap;
      tickets = Atomic.make 0;
    }
  in
  ensure_helpers helper_cap;
  Mutex.lock lock;
  (* one batch in flight at a time: concurrent submitters queue here *)
  while !slot <> None do
    Condition.wait quiescent lock
  done;
  slot := Some job;
  incr epoch;
  Atomic.incr batches_c;
  Condition.broadcast work_available;
  Mutex.unlock lock;
  (* the submitter is a full participant — with no helpers woken yet it
     simply drains the whole batch itself *)
  run_chunks ~stolen:false job;
  Mutex.lock lock;
  while Atomic.get job.pending > 0 do
    Condition.wait quiescent lock
  done;
  slot := None;
  Condition.broadcast quiescent;
  Mutex.unlock lock;
  match Atomic.get job.failed with Some e -> raise e | None -> ()

(* [shutdown] may run ON a worker domain: [at_exit] handlers execute on
   whichever domain called [exit], and user code inside a pool chunk (a
   fault handler, a test harness aborting a range) is entitled to exit.
   Joining the full helper list from a helper self-joins — [Domain.join]
   on the current domain never returns — which surfaced as a rare hang at
   workers=4 (the exiting chunk must happen to be a *stolen* one).  The
   calling domain is therefore excluded from the join set: it stays in
   [helpers] so a later shutdown from another domain still reaps it, and
   the flag/broadcast handshake below is unchanged.  Joins are also
   exception-proof — a worker death must not strand [shutting_down],
   which would pin the pool inline forever. *)
let shutdown () =
  let self = Domain.self () in
  Mutex.lock lock;
  let ds, kept =
    List.partition (fun d -> Domain.get_id d <> self) !helpers
  in
  helpers := kept;
  Metrics.gauge_set live_g (List.length kept);
  if ds <> [] then begin
    shutting_down := true;
    Condition.broadcast work_available
  end;
  Mutex.unlock lock;
  if ds <> [] then begin
    List.iter (fun d -> try Domain.join d with _ -> ()) ds;
    Mutex.lock lock;
    (* reusable: the next parallel batch respawns lazily *)
    shutting_down := false;
    Mutex.unlock lock
  end

let () = at_exit shutdown

(* ----------------------------------------------------------------- views *)

type t = { workers : int; serial_cutoff : int }

let create ~workers =
  { workers = max 1 workers; serial_cutoff = Config.default_serial_cutoff }

let with_serial_cutoff serial_cutoff t = { t with serial_cutoff }

let global () = create ~workers:Config.default.Config.workers

let workers t = t.workers
let sequential = { workers = 1; serial_cutoff = Config.default_serial_cutoff }

let run_inline tasks =
  Atomic.incr inline_c;
  Array.iter (fun task -> task ()) tasks

let run_tasks ?points t tasks =
  let n = Array.length tasks in
  if n = 0 then ()
  else if
    t.workers <= 1 || n = 1
    || !(Domain.DLS.get in_task)
    || (match points with Some p -> p < t.serial_cutoff | None -> false)
  then run_inline tasks
  else
    submit
      ~helper_cap:(min (t.workers - 1) (n - 1))
      ~chunks:n
      (fun i -> tasks.(i) ())

let parallel_range ?grain t n f =
  if n > 0 then begin
    let grain =
      match grain with
      | Some g -> max 1 g
      | None -> max 1 (n / (t.workers * 4))
    in
    let chunks = (n + grain - 1) / grain in
    (* [n] is the lattice-point count of the range, so the view's serial
       cutoff applies exactly as it does to [run_tasks ~points]: tiny
       ranges run inline instead of paying pool dispatch.  The inline
       path still covers the range chunk by chunk, preserving the
       at-most-[grain] contract of the callback. *)
    if
      t.workers <= 1 || chunks = 1 || n < t.serial_cutoff
      || !(Domain.DLS.get in_task)
    then begin
      Atomic.incr inline_c;
      if chunks = 1 then f 0 n
      else
        for c = 0 to chunks - 1 do
          let lo = c * grain in
          f lo (min n (lo + grain))
        done
    end
    else
      submit
        ~helper_cap:(min (t.workers - 1) (chunks - 1))
        ~chunks
        (fun c ->
          let lo = c * grain in
          f lo (min n (lo + grain)))
  end

let parallel_for ?grain t n f =
  parallel_range ?grain t n (fun lo hi ->
      for i = lo to hi - 1 do
        f i
      done)
