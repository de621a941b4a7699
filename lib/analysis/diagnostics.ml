open Snowflake

type severity = Error | Warning | Note

type t = {
  code : string;
  severity : severity;
  loc : Srcloc.t;
  message : string;
  hint : string option;
}

let make ~code ~severity ~loc ?hint message =
  { code; severity; loc; message; hint }

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds
let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let sort ds =
  List.stable_sort
    (fun a b ->
      let c = Srcloc.compare a.loc b.loc in
      if c <> 0 then c else String.compare a.code b.code)
    ds

let catalogue =
  [
    ("SF001", Error, "access escapes its grid (out of bounds)");
    ("SF002", Warning, "domain union writes a cell more than once");
    ("SF003", Note, "loop-carried dependence; stencil runs sequentially");
    ("SF004", Error, "parameter read but not bound");
    ("SF011", Warning, "grid read before any write or declared input");
    ("SF012", Warning, "entire write lattice overwritten before any read");
    ("SF021", Error, "intra-wave race in a backend plan");
    ("SF022", Warning, "stencil forced parallel against the analysis");
    ("SF023", Error, "illegal fusion: concurrent fused tasks conflict");
    ("SF024", Error, "time-tile skew below the dependence slope");
    ("SF025", Error, "group cannot be time-tiled");
    ("SF030", Note, "pipeline certified: schedule and channel depths");
    ("SF031", Error, "unsatisfiable channel sizing (deadlock cycle)");
    ("SF032", Error, "group is not pipelineable across ranks");
    ("SF033", Warning, "certified channel depths exceed the memory budget");
    ("SF034", Error, "executed plan disagrees with certified channel depths");
  ]

let fix_hints =
  [
    ("SF001", "widen the grid's halo on the named side, or shrink the \
               stencil's domain so every imaged access stays in bounds");
    ("SF002", "split or re-stride the domain union's rects so no cell is \
               written twice");
    ("SF003", "recolour the sweep (e.g. red/black) or write to a separate \
               output grid to expose parallelism");
    ("SF004", "bind the parameter at the call site (--params on the CLIs, \
               ~params in the API)");
    ("SF011", "write the cells first, or declare the grid external with \
               --inputs so the analyzer knows it arrives initialized");
    ("SF012", "delete the store, or move a consumer of it before the \
               overwriting stencil");
    ("SF021", "remove the force_parallel override (or fix the plan) — the \
               certifier proved two concurrent tasks conflict");
    ("SF022", "drop the override unless measurements justify it; SF021 \
               certification is the only remaining safety net");
    ("SF023", "disable fusion (--no-fusion / Config.fusion = false) or drop \
               the force_parallel override that made the cluster legal");
    ("SF024", "use Timetile.plan's computed skew; never pass ?skew below \
               Timetile.required_skew");
    ("SF025", "restructure the group (identity writes, point-parallel \
               stencils, unit-scale reads) or accept plain k-sweep loops");
    ("SF030", "nothing to fix — this note records the certified schedule \
               and ring depths the pipelined executor will allocate");
    ("SF031", "grow the undersized channels (remove any depth override) or \
               fall back to bulk-synchronous Spmd.run_group");
    ("SF032", "restructure cross-rank reads into pure neighbour-to-neighbour \
               halo copy stencils, or run the sweep bulk-synchronously");
    ("SF033", "raise the budget (SF_PIPE_BUDGET, or Pipeline_check.analyze \
               ~budget_bytes), shrink the plane size, or use the \
               bulk-synchronous fallback");
    ("SF034", "recertify the plan: the executor must allocate exactly the \
               certified ring depths");
  ]

let explain code =
  match
    List.find_opt (fun (c, _, _) -> String.equal c code) catalogue
  with
  | None -> None
  | Some (c, sev, desc) ->
      let hint =
        match List.assoc_opt c fix_hints with Some h -> h | None -> ""
      in
      Some (sev, desc, hint)

(* --------------------------------------------- rank-qualifier collapsing *)

let is_digit c = c >= '0' && c <= '9'

(* Replace every rank qualifier ["@1_0"] with ["@*"]; also return the
   distinct qualifiers found, so callers can count ranks. *)
let scan_ranks s =
  let n = String.length s in
  let buf = Buffer.create n in
  let found = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '@' && !i + 1 < n && is_digit s.[!i + 1] then begin
      let j = ref (!i + 1) in
      let continue = ref true in
      while !continue do
        while !j < n && is_digit s.[!j] do incr j done;
        if !j + 1 < n && s.[!j] = '_' && is_digit s.[!j + 1] then incr j
        else continue := false
      done;
      found := String.sub s (!i + 1) (!j - !i - 1) :: !found;
      Buffer.add_string buf "@*";
      i := !j
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  (Buffer.contents buf, List.rev !found)

let strip_ranks s = fst (scan_ranks s)

let strip_part = function
  | Srcloc.Read g -> Srcloc.Read (strip_ranks g)
  | Srcloc.Param p -> Srcloc.Param (strip_ranks p)
  | p -> p

let strip_loc (loc : Srcloc.t) =
  {
    loc with
    Srcloc.stencil = Option.map strip_ranks loc.Srcloc.stencil;
    part = strip_part loc.Srcloc.part;
  }

let ranks_of d =
  let of_str s = snd (scan_ranks s) in
  List.concat
    [
      (match d.loc.Srcloc.stencil with Some s -> of_str s | None -> []);
      of_str (Srcloc.part_to_string d.loc.Srcloc.part);
      of_str d.message;
    ]
  |> List.sort_uniq compare

let collapse_ranks ds =
  let key d =
    let loc = strip_loc d.loc in
    ( d.code,
      loc.Srcloc.group,
      loc.Srcloc.stencil,
      Srcloc.part_to_string loc.Srcloc.part,
      strip_ranks d.message,
      Option.map strip_ranks d.hint )
  in
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun d ->
      let k = key d in
      match Hashtbl.find_opt tbl k with
      | Some (first, ranks, n) ->
          Hashtbl.replace tbl k (first, ranks_of d @ ranks, n + 1)
      | None ->
          order := k :: !order;
          Hashtbl.add tbl k (d, ranks_of d, 1))
    ds;
  List.rev !order
  |> List.map (fun k ->
         let first, ranks, n = Hashtbl.find tbl k in
         if n <= 1 then first
         else
           let nranks =
             let distinct = List.sort_uniq compare ranks in
             if distinct = [] then n else List.length distinct
           in
           {
             first with
             loc = strip_loc first.loc;
             message =
               Printf.sprintf "%s [x%d ranks]" (strip_ranks first.message)
                 nranks;
             hint = Option.map strip_ranks first.hint;
           })

let pp ppf d =
  Format.fprintf ppf "%s[%s] %a: %s"
    (severity_to_string d.severity)
    d.code Srcloc.pp d.loc d.message;
  match d.hint with
  | Some h -> Format.fprintf ppf "@\n  hint: %s" h
  | None -> ()

let to_string d = Format.asprintf "%a" pp d

let render ds =
  match ds with
  | [] -> ""
  | _ ->
      let body = String.concat "\n" (List.map to_string ds) in
      Printf.sprintf "%s\n%d error(s), %d warning(s), %d note(s)\n" body
        (count Error ds) (count Warning ds) (count Note ds)

(* ------------------------------------------------------------------ JSON *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = Printf.sprintf "\"%s\"" (json_escape s)
let json_opt = function None -> "null" | Some s -> json_string s

let to_json d =
  Printf.sprintf
    "{\"code\":%s,\"severity\":%s,\"group\":%s,\"stencil\":%s,\"part\":%s,\
     \"message\":%s,\"hint\":%s}"
    (json_string d.code)
    (json_string (severity_to_string d.severity))
    (json_opt d.loc.Srcloc.group)
    (json_opt d.loc.Srcloc.stencil)
    (json_string (Srcloc.part_to_string d.loc.Srcloc.part))
    (json_string d.message) (json_opt d.hint)

let list_to_json ds =
  Printf.sprintf "[%s]" (String.concat "," (List.map to_json ds))
