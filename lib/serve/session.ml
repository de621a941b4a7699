(* Tenant sessions.  One global registry under one mutex: admission is a
   few integer comparisons, far off any hot path. *)

type quota = { max_inflight : int; max_cells : int; cell_budget : int }

let default_quota =
  { max_inflight = 8; max_cells = 16 * 1024 * 1024; cell_budget = max_int }

type t = {
  tenant : string;
  quota : quota;
  mutable inflight : int;
  mutable submitted : int;
  mutable completed : int;
  mutable errored : int;
  mutable rejected : int;
  mutable cells_used : int;
}

let tenant s = s.tenant
let quota s = s.quota

let mx = Mutex.create ()

let locked f =
  Mutex.lock mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock mx) f

let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let find_or_create ~quota name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some s -> s
      | None ->
          let s =
            {
              tenant = name;
              quota;
              inflight = 0;
              submitted = 0;
              completed = 0;
              errored = 0;
              rejected = 0;
              cells_used = 0;
            }
          in
          Hashtbl.add registry name s;
          s)

let admit s ~cells ~grid_cells =
  locked (fun () ->
      let q = s.quota in
      let reject code msg =
        s.rejected <- s.rejected + 1;
        Error (code, msg)
      in
      if s.inflight >= q.max_inflight then
        reject Protocol.err_quota_inflight
          (Printf.sprintf "tenant %S already has %d requests in flight"
             s.tenant s.inflight)
      else if cells > q.max_cells then
        reject Protocol.err_quota_cells
          (Printf.sprintf "request of %d cells exceeds per-request limit %d"
             cells q.max_cells)
      else if grid_cells > q.max_cells then
        reject Protocol.err_quota_cells
          (Printf.sprintf
             "program declares %d grid cells, exceeds per-request limit %d"
             grid_cells q.max_cells)
      else if
        q.cell_budget <> max_int && s.cells_used + cells > q.cell_budget
      then
        reject Protocol.err_quota_budget
          (Printf.sprintf
             "request of %d cells exceeds remaining budget %d of %d" cells
             (q.cell_budget - s.cells_used)
             q.cell_budget)
      else begin
        s.inflight <- s.inflight + 1;
        s.submitted <- s.submitted + 1;
        s.cells_used <- s.cells_used + cells;
        Ok ()
      end)

let finish s = locked (fun () -> s.inflight <- max 0 (s.inflight - 1))
let note_completed s = locked (fun () -> s.completed <- s.completed + 1)
let note_errored s = locked (fun () -> s.errored <- s.errored + 1)

type stats = {
  s_tenant : string;
  s_inflight : int;
  s_submitted : int;
  s_completed : int;
  s_errored : int;
  s_rejected : int;
  s_cells_used : int;
}

let stats_of s =
  {
    s_tenant = s.tenant;
    s_inflight = s.inflight;
    s_submitted = s.submitted;
    s_completed = s.completed;
    s_errored = s.errored;
    s_rejected = s.rejected;
    s_cells_used = s.cells_used;
  }

let stats s = locked (fun () -> stats_of s)

let all_stats () =
  locked (fun () ->
      Hashtbl.fold (fun _ s acc -> stats_of s :: acc) registry []
      |> List.sort (fun a b -> String.compare a.s_tenant b.s_tenant))

let reset_all () = locked (fun () -> Hashtbl.reset registry)
