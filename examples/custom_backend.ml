(* Writing your own micro-compiler — the paper's central architectural
   pitch (Fig. 1c, Fig. 5: the teal "compiler/platform expert" role).

     dune exec examples/custom_backend.exe

   The front end hands a backend exactly three things: the compile
   options, the iteration shape, and the analysed stencil group.  This
   example registers two custom backends in a few dozen lines each:

   - "traced": wraps the stock compiled backend and prints a per-stencil
     execution trace with wall times — a poor man's profiler, built
     without touching framework code;
   - "checked": an interpreter variant that re-validates every write
     against the stencil's declared footprint — a debugging backend. *)

open Sf_util
open Sf_mesh
open Snowflake
open Sf_analysis
open Sf_backends

let traced_backend (config : Config.t) ~shape (group : Group.t) =
  (* compile each stencil separately through the stock backend so we can
     time them individually *)
  let pieces =
    List.map
      (fun s ->
        ( s.Stencil.label,
          Jit.compile ~config Jit.Compiled ~shape
            (Group.make ~label:("traced_" ^ s.Stencil.label) [ s ]) ))
      (Group.stencils group)
  in
  Kernel.make ~name:group.Group.label ~backend:"traced"
    ~description:"per-stencil tracing wrapper over the compiled backend"
    (fun ?params grids ->
      (* bind every piece once; the instance only runs and times them *)
      let bound =
        List.map
          (fun (label, kernel) -> (label, kernel.Kernel.bind ?params grids))
          pieces
      in
      fun () ->
          List.iter
            (fun (label, run) ->
              let t0 = Unix.gettimeofday () in
              run ();
              Printf.printf "    [trace] %-12s %8.1f us\n" label
                (1e6 *. (Unix.gettimeofday () -. t0)))
            bound)

  let checked_backend (_config : Config.t) ~shape (group : Group.t) =
    Kernel.make ~name:group.Group.label ~backend:"checked"
      ~description:"write-footprint-checking interpreter"
      (fun ?(params = []) grids ->
        let lookup = Kernel.param_lookup params in
        fun () ->
        List.iter
          (fun s ->
            let writes = snd (Footprint.write_footprint ~shape s) in
            Domain.resolve ~shape s.Stencil.domain
            |> List.iter (fun rect ->
                   Domain.iter rect (fun p ->
                       let target = Affine.apply s.Stencil.out_map p in
                       if not (List.exists (fun w -> Domain.mem w target) writes)
                       then
                         failwith
                           (Printf.sprintf "%s writes outside its footprint!"
                              s.Stencil.label);
                       let v =
                         Expr.eval s.Stencil.expr
                           ~read:(fun g m ->
                             Mesh.get (Grids.find grids g) (Affine.apply m p))
                           ~params:lookup
                       in
                       Mesh.set (Grids.find grids s.Stencil.output) target v)))
          (Group.stencils group))

let () =
  Jit.register_backend ~name:"traced" traced_backend;
  Jit.register_backend ~name:"checked" checked_backend;
  Printf.printf "registered custom backends: %s\n"
    (String.concat ", " (Jit.registered_backends ()));

  let shape = Ivec.of_list [ 34; 34 ] in
  let group =
    Group.make ~label:"demo"
      (Dsl.dirichlet_faces ~dims:2 ~grid:"u"
      @ [
          Stencil.make ~label:"smooth" ~output:"out"
            ~expr:
              (Component.to_expr ~grid:"u"
                 (Dsl.star_weights ~dims:2 ~center:0. ~arm:0.25))
            ~domain:(Domain.interior 2 ~ghost:1)
            ();
        ])
  in
  let mk_grids () =
    Grids.of_list
      [ ("u", Mesh.random ~seed:8 shape); ("out", Mesh.create shape) ]
  in
  (* the same single-source program runs on stock and custom backends *)
  let results =
    List.map
      (fun name ->
        let backend = Option.get (Jit.backend_of_string name) in
        let grids = mk_grids () in
        Printf.printf "  backend %s:\n%!" name;
        (Jit.compile backend ~shape group).Kernel.run grids;
        Grids.find grids "out")
      [ "compiled"; "traced"; "checked" ]
  in
  (match results with
  | [ a; b; c ] ->
      assert (Mesh.equal_approx a b);
      assert (Mesh.equal_approx ~tol:1e-12 a c)
  | _ -> assert false);
  print_endline "stock and custom backends agree — extensibility demo OK."
