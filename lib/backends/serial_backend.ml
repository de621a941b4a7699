(* Sequential micro-compilers: the reference interpreter and the
   strength-reduced "C-like" executor share one lowering.  Both run
   stencils in program order, rects in union order, points row-major —
   the DSL's sequential semantics: each stencil is its own wave of one
   task over all of its rects. *)

open Snowflake

let lower ~backend ~shape (group : Group.t) =
  let stencils = Group.stencils group in
  Plan.make ~backend ~shape
    ~description:
      (Printf.sprintf "%s: %d stencil(s), sequential" backend
         (List.length stencils))
    ~cost:(Costing.of_group ~shape group)
    group
    (List.map
       (fun s ->
         [ List.map (fun r -> (s, r)) (Domain.resolve ~shape s.Stencil.domain) ])
       stencils)
