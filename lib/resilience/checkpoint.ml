(* Copy-on-checkpoint ring of k reusable snapshot buffers.

   The client supplies alloc/save/restore over its own state type, so the
   ring never learns about meshes or levels; Mg checkpoints only the
   level-0 solution mesh (everything coarser is recomputed each V-cycle).
   Buffers are allocated once, lazily, and reused round-robin — a
   checkpoint at capacity overwrites the oldest snapshot in place rather
   than allocating. *)

module Trace = Sf_trace.Trace

type 'a t = {
  label : string;
  capacity : int;
  alloc : unit -> 'a;
  save : 'a -> unit;
  restore : 'a -> unit;
  (* newest-first ring of (tag, buffer); length <= capacity *)
  mutable ring : (int * 'a) list;
  mutable taken : int;
  mutable rollbacks : int;
}

let rollbacks_c = Sf_trace.Metrics.counter "checkpoint.rollbacks"

let create ?(capacity = 3) ?(label = "ckpt") ~alloc ~save ~restore () =
  if capacity < 1 then invalid_arg "Checkpoint.create: capacity < 1";
  { label; capacity; alloc; save; restore; ring = []; taken = 0; rollbacks = 0 }

let depth t = List.length t.ring
let taken t = t.taken
let rollbacks t = t.rollbacks

let marker t name ~tag =
  Trace.record_span
    ~args:[ ("tag", Trace.Int tag); ("depth", Trace.Int (depth t)) ]
    Trace.Phase
    (name ^ ":" ^ t.label)
    ~ts_us:(Trace.now_us ()) ~dur_us:0.

(* Reuse the oldest buffer once at capacity; otherwise allocate. *)
let checkpoint t ~tag =
  let buf, rest =
    if depth t >= t.capacity then
      match List.rev t.ring with
      | (_, oldest) :: _ ->
          let rest =
            List.filteri (fun i _ -> i < t.capacity - 1) t.ring
          in
          (oldest, rest)
      | [] -> assert false
    else (t.alloc (), t.ring)
  in
  t.save buf;
  t.ring <- (tag, buf) :: rest;
  t.taken <- t.taken + 1;
  if Trace.on () then marker t "checkpoint" ~tag

let latest t = match t.ring with [] -> None | (tag, _) :: _ -> Some tag

(* Restore the newest snapshot; it stays in the ring so repeated rollbacks
   to the same point are allowed (use discard_latest to roll further). *)
let rollback t =
  match t.ring with
  | [] -> None
  | (tag, buf) :: _ ->
      t.restore buf;
      t.rollbacks <- t.rollbacks + 1;
      Atomic.incr rollbacks_c;
      if Trace.on () then marker t "rollback" ~tag;
      Some tag

let discard_latest t =
  match t.ring with
  | [] -> ()
  | _ :: rest -> t.ring <- rest
