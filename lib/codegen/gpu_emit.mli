(** The GPU micro-compiler shared by OpenCL and CUDA: prints the [Opencl]
    plan of [Jit.lower], one in-order launch per wave and launch box.

    - The point-parallel tiles of a wave are merged back into the boxes
      they tile; each box is one kernel mapping work-item ids to lattice
      coordinates ([lo + id*stride]) behind a range guard.  A fused wave's
      kernel runs every member in program order at each point.
    - A task that is not point-parallel (an in-place sweep with a
      loop-carried dependence) is one kernel of a single work-item looping
      over the task's steps.
    - A trailing host sketch lists the launches wave by wave; the in-order
      queue (one stream) orders them as the plan's barriers do.

    Iteration ranks 1–3 only; higher ranks raise [Invalid_argument]. *)

open Sf_util

type dialect = {
  compiler : string;  (** banner name, e.g. ["OpenCL"] *)
  header : string;  (** a prelude line, e.g. an extension pragma *)
  kernel : string;  (** kernel qualifier *)
  space : string;  (** address-space prefix of grid pointers *)
  restrict : string;  (** the [restrict] spelling *)
  global_id : int -> C_ast.expr;  (** work-item id along a dimension *)
  launch :
    Sf_backends.Config.t -> string -> Ivec.t option -> string;
      (** host launch of a kernel over per-axis counts ([None]: a single
          work-item) *)
}

val extents : Ivec.t -> string
(** Per-axis counts, innermost first: ["16, 8"] for counts [[|8; 16|]]. *)

val emit : dialect -> Lower.emitter
