open Sf_util
open Snowflake

let magic = "; sffuzz "

(* ------------------------------------------------------------- writing *)

let meta_line parts = magic ^ Sexp.to_string (Sexp.list parts) ^ "\n"

let to_string ?(note = "") (spec : Gen.spec) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "; sffuzz: corpus case -- replayable differential-fuzz program\n";
  Buffer.add_string b
    "; (replay: dune exec bin/sffuzz.exe -- --replay-dir <dir>; docs/TESTING.md)\n";
  String.split_on_char '\n' note
  |> List.iter (fun line ->
         if String.trim line <> "" then
           Buffer.add_string b ("; note: " ^ line ^ "\n"));
  Buffer.add_string b
    (meta_line [ Sexp.atom "v"; Sexp.int 1 ]);
  Buffer.add_string b
    (meta_line [ Sexp.atom "seed"; Sexp.int spec.Gen.seed ]);
  Buffer.add_string b
    (meta_line
       (Sexp.atom "shape"
       :: List.map Sexp.int (Ivec.to_list spec.Gen.shape)));
  List.iter
    (fun (g : Gen.grid_spec) ->
      Buffer.add_string b
        (meta_line
           [
             Sexp.atom "grid";
             Sexp.atom g.Gen.gname;
             Sexp.list (List.map Sexp.int (Ivec.to_list g.Gen.gshape));
             Sexp.int g.Gen.gseed;
           ]))
    spec.Gen.grids;
  List.iter
    (fun (p, v) ->
      Buffer.add_string b
        (meta_line [ Sexp.atom "param"; Sexp.atom p; Sexp.float v ]))
    spec.Gen.params;
  Buffer.add_string b (Program_io.group_to_string spec.Gen.group);
  Buffer.add_char b '\n';
  Buffer.contents b

let save ~dir ?note spec =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let base = Filename.concat dir spec.Gen.label in
  let rec pick k =
    let path =
      if k = 1 then base ^ ".sfl" else Printf.sprintf "%s-%d.sfl" base k
    in
    if Sys.file_exists path then pick (k + 1) else path
  in
  let path = pick 1 in
  let oc = open_out path in
  output_string oc (to_string ?note spec);
  close_out oc;
  path

(* ------------------------------------------------------------- reading *)

let ( let* ) = Result.bind

let parse_meta_line line =
  let payload = String.sub line (String.length magic)
      (String.length line - String.length magic) in
  Sexp.parse (String.trim payload)

let as_ints sexps =
  List.fold_right
    (fun s acc ->
      let* acc = acc in
      let* i = Sexp.as_int s in
      Ok (i :: acc))
    sexps (Ok [])

let of_string ~label text =
  let lines = String.split_on_char '\n' text in
  let metas =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if String.length line >= String.length magic
           && String.sub line 0 (String.length magic) = magic
        then Some (parse_meta_line line)
        else None)
      lines
  in
  let* metas =
    List.fold_right
      (fun m acc ->
        let* acc = acc in
        let* m = m in
        Ok (m :: acc))
      metas (Ok [])
  in
  let seed = ref 0 in
  let shape = ref None in
  let grids = ref [] in
  let params = ref [] in
  let* () =
    List.fold_left
      (fun acc m ->
        let* () = acc in
        match m with
        | Sexp.List (Sexp.Atom "v" :: _) -> Ok ()
        | Sexp.List [ Sexp.Atom "seed"; s ] ->
            let* v = Sexp.as_int s in
            seed := v;
            Ok ()
        | Sexp.List (Sexp.Atom "shape" :: dims) ->
            let* dims = as_ints dims in
            shape := Some (Ivec.of_list dims);
            Ok ()
        | Sexp.List [ Sexp.Atom "grid"; Sexp.Atom name; Sexp.List dims; s ] ->
            let* dims = as_ints dims in
            let* gseed = Sexp.as_int s in
            grids :=
              !grids
              @ [ { Gen.gname = name; gshape = Ivec.of_list dims; gseed } ];
            Ok ()
        | Sexp.List [ Sexp.Atom "param"; Sexp.Atom name; v ] ->
            let* v = Sexp.as_float v in
            params := !params @ [ (name, v) ];
            Ok ()
        | other ->
            Error
              (Printf.sprintf "unrecognised sffuzz metadata: %s"
                 (Sexp.to_string other)))
      (Ok ()) metas
  in
  let* group = Program_io.group_of_string text in
  let* shape =
    match !shape with
    | Some s -> Ok s
    | None -> Error "corpus file carries no `; sffuzz (shape ...)` line"
  in
  let spec =
    {
      Gen.label;
      seed = !seed;
      shape;
      group;
      grids = !grids;
      params = !params;
    }
  in
  let* () = Gen.validate spec in
  Ok spec

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let load path =
  let label = Filename.remove_extension (Filename.basename path) in
  match of_string ~label (read_file path) with
  | Ok spec -> Ok spec
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let replay ?only path =
  let* spec = load path in
  let targets = Diff.targets_for ~only ~dims:(Ivec.dims spec.Gen.shape) in
  match Diff.check ~targets spec with
  | Ok () -> Ok ()
  | Error d ->
      Error (Printf.sprintf "%s: %s" path (Diff.divergence_to_string d))

let files dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sfl")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  else []
