(* Executes the C the sequential and OpenMP micro-compilers print.

     emit_exec_check.exe CORPUS.sfl CC [CC-FLAGS...]

   For every case below, Seq_emit's and Omp_emit's output is compiled with
   the given C compiler (plus -std=c99 -O2 -ffp-contract=off -Wall -Wextra
   -Werror, and -fopenmp for OpenMP, run with OMP_NUM_THREADS=2) into a
   program whose generated main() reads every grid of the plan's group
   from stdin and writes them back to stdout after one call, as raw
   little-endian doubles.  Every cell of every grid must be bitwise equal
   to what [Jit.compile Interp] computes from the same inputs.  The cases:
   HPGMG's GSRB smoother and residual group at 10^3, a fused pointwise
   chain, an in-place Gauss-Seidel sweep and the CORPUS program. *)

open Sf_util
open Snowflake
open Sf_backends
module Mesh = Sf_mesh.Mesh
module Grids = Sf_mesh.Grids

type case = {
  name : string;
  config : Config.t;  (** for Omp_emit; Seq_emit takes none *)
  shape : Ivec.t;
  group : Group.t;
  grids : Grids.t;
  params : (string * float) list;
}

let random_grids shape names =
  Grids.of_list
    (List.mapi (fun i g -> (g, Mesh.random ~seed:(i + 1) shape)) names)

let hpgmg name group =
  let shape = Ivec.of_list [ 10; 10; 10 ] in
  {
    name;
    config = Config.default;
    shape;
    group;
    grids = random_grids shape (Group.grids group);
    params = List.map (fun p -> (p, 81.)) (Group.params group);
  }

let chain =
  let mk label output expr =
    Stencil.make ~label ~output ~expr ~domain:(Domain.interior 1 ~ghost:1) ()
  in
  let o = Ivec.of_list [ 0 ] in
  let group =
    Group.make ~label:"chain"
      [
        mk "scale" "tmp" Expr.(const 2. *: read "u" o);
        mk "shift" "out" Expr.(read "tmp" o +: read "u" o);
      ]
  in
  let shape = Ivec.of_list [ 64 ] in
  {
    name = "fused chain";
    config = { Config.default with fusion = true; tile = Some [ 16 ] };
    shape;
    group;
    grids = random_grids shape (Group.grids group);
    params = [];
  }

let gs =
  let group =
    Group.make ~label:"g"
      [
        Stencil.make ~label:"gs" ~output:"u"
          ~expr:
            Expr.(
              read "u" (Ivec.of_list [ -1 ]) +: read "u" (Ivec.of_list [ 1 ]))
          ~domain:(Domain.interior 1 ~ghost:1)
          ();
      ]
  in
  let shape = Ivec.of_list [ 32 ] in
  {
    name = "gs";
    config = Config.default;
    shape;
    group;
    grids = random_grids shape [ "u" ];
    params = [];
  }

let corpus path =
  match Sf_fuzz.Corpus.load path with
  | Error msg -> failwith (path ^ ": " ^ msg)
  | Ok spec ->
      {
        name = Filename.basename path;
        config = Config.default;
        shape = spec.Sf_fuzz.Gen.shape;
        group = spec.Sf_fuzz.Gen.group;
        grids = Sf_fuzz.Gen.build_grids spec;
        params = spec.Sf_fuzz.Gen.params;
      }

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let encode meshes =
  let b = Buffer.create 4096 in
  List.iter
    (fun m ->
      for i = 0 to Mesh.size m - 1 do
        Buffer.add_int64_le b (Int64.bits_of_float (Mesh.get_flat m i))
      done)
    meshes;
  Buffer.contents b

(* The locals of main() are [sfd<k>], so they cannot shadow a grid such as
   HPGMG's [f]; no case has a grid or parameter of that form. *)
let with_main ~src ~fname ~grids ~params =
  let sizes = List.map Mesh.size grids in
  let each f = String.concat "\n" (List.mapi f sizes) in
  String.concat "\n"
    [
      "#include <stdio.h>";
      "#include <stdlib.h>";
      src;
      "int main(void) {";
      each (fun k n ->
          Printf.sprintf "  double *sfd%d = malloc(%du * sizeof(double));" k n);
      each (fun k n ->
          Printf.sprintf
            "  if (fread(sfd%d, sizeof(double), %du, stdin) != %du) return 1;"
            k n n);
      Printf.sprintf "  %s(%s);" fname
        (String.concat ", "
           (List.mapi (fun k _ -> Printf.sprintf "sfd%d" k) grids
           @ List.map (Printf.sprintf "%h") params));
      each (fun k n ->
          Printf.sprintf "  fwrite(sfd%d, sizeof(double), %du, stdout);" k n);
      "  return 0;";
      "}";
      "";
    ]

let run_c ~cc ~dir ~tag ~openmp case src (plan : Plan.t) =
  let group = plan.Plan.group in
  let names = Group.grids group and pnames = Group.params group in
  if
    List.exists
      (fun n -> String.length n >= 3 && String.sub n 0 3 = "sfd")
      (names @ pnames)
  then failwith (case.name ^ ": a name clashes with main()'s sfd<k>");
  let inputs = List.map (Grids.find case.grids) names in
  let c = Filename.concat dir (tag ^ ".c")
  and exe = Filename.concat dir tag
  and input = Filename.concat dir (tag ^ ".in")
  and output = Filename.concat dir (tag ^ ".out") in
  write_file c
    (with_main ~src
       ~fname:(Sf_codegen.Lower.sanitize group.Group.label)
       ~grids:inputs
       ~params:(List.map (fun p -> List.assoc p case.params) pnames));
  write_file input (encode inputs);
  let flags =
    [ "-std=c99"; "-O2"; "-ffp-contract=off"; "-Wall"; "-Wextra"; "-Werror" ]
    @ (if openmp then [ "-fopenmp" ] else [])
  in
  let compile =
    Filename.quote_command (List.hd cc) (List.tl cc @ flags @ [ c; "-o"; exe ])
  in
  if Sys.command compile <> 0 then failwith (tag ^ ": C compile failed");
  let run = Filename.quote_command exe ~stdin:input ~stdout:output [] in
  if Sys.command run <> 0 then failwith (tag ^ ": the emitted program failed");
  let bytes = read_file output and off = ref 0 in
  List.map2
    (fun g m ->
      let base = !off in
      off := base + (8 * Mesh.size m);
      ( g,
        Array.init (Mesh.size m) (fun i ->
            Int64.float_of_bits (String.get_int64_le bytes (base + (8 * i)))) ))
    names inputs

let programs = ref 0 and total = ref 0

let check ~cc ~dir case =
  let reference = Grids.copy case.grids in
  (Jit.compile Jit.Interp ~shape:case.shape case.group).Kernel.run
    ~params:case.params reference;
  let grid_shapes g = Mesh.shape (Grids.find case.grids g) in
  List.iter
    (fun (emitter, openmp, backend, config, src) ->
      let tag =
        String.map (fun c -> if c = ' ' || c = '.' then '_' else c) case.name
        ^ "_" ^ emitter
      in
      let plan = Jit.lower ~config backend ~shape:case.shape case.group in
      List.iter
        (fun (g, got) ->
          let want = Grids.find reference g in
          Array.iteri
            (fun i v ->
              let w = Mesh.get_flat want i in
              if Int64.bits_of_float v <> Int64.bits_of_float w then begin
                Printf.eprintf "%s %s: grid %s cell %d: C %h, interp %h\n"
                  case.name emitter g i v w;
                exit 1
              end;
              incr total)
            got)
        (run_c ~cc ~dir ~tag ~openmp case (src ()) plan);
      incr programs)
    [
      ( "seq", false, Jit.Compiled, Config.default,
        fun () ->
          Sf_codegen.Seq_emit.emit ~shape:case.shape ~grid_shapes case.group );
      ( "openmp", true, Jit.Openmp, case.config,
        fun () ->
          Sf_codegen.Omp_emit.emit ~config:case.config ~shape:case.shape
            ~grid_shapes case.group );
    ]

let () =
  match Array.to_list Sys.argv with
  | _ :: sfl :: (_ :: _ as cc) ->
      Unix.putenv "OMP_NUM_THREADS" "2";
      let dir = Filename.temp_dir "emit_exec" "" in
      List.iter (check ~cc ~dir)
        [
          hpgmg "gsrb_smooth" Sf_hpgmg.Operators.gsrb_smooth;
          hpgmg "residual"
            (Group.make ~label:"residual"
               Sf_hpgmg.Operators.(boundaries ~grid:"u" @ [ residual_vc ]));
          chain;
          gs;
          corpus sfl;
        ];
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir;
      Printf.printf
        "emit-exec: %d emitted programs, %d cells bitwise equal to interp\n"
        !programs !total
  | _ ->
      prerr_endline "usage: emit_exec_check CORPUS.sfl CC [CC-FLAGS...]";
      exit 2
