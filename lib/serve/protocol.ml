(* Wire protocol: u32-BE length prefix, tag byte, binary fields.  The
   encoders build into Buffer, except RESULT (the bulk grid data), which
   is written once into an exact-size buffer; the decoders walk a cursor
   over the frame and fail with a positioned message instead of raising,
   so a malformed frame from a hostile client is an ERROR reply, never an
   exception escaping the connection thread. *)

let version = 1
let max_frame = 64 * 1024 * 1024

let cap_submit = 1
let cap_poll = 2
let cap_stats = 4
let cap_coalesce = 8
let cap_faults = 16
let cap_shutdown = 32

let cap_all =
  cap_submit lor cap_poll lor cap_stats lor cap_coalesce lor cap_faults
  lor cap_shutdown

let cap_names mask =
  List.filter_map
    (fun (bit, name) -> if mask land bit <> 0 then Some name else None)
    [
      (cap_submit, "submit");
      (cap_poll, "poll");
      (cap_stats, "stats");
      (cap_coalesce, "coalesce");
      (cap_faults, "faults");
      (cap_shutdown, "shutdown");
    ]

let err_proto = "proto"
let err_parse = "parse"
let err_quota_inflight = "quota-inflight"
let err_quota_cells = "quota-cells"
let err_quota_budget = "quota-budget"
let err_too_large = "too-large"
let err_certification = "certification"
let err_fault = "fault"
let err_guard = "guard"
let err_internal = "internal"
let err_fatal = "fatal"

type submit = {
  program : string;
  backend : string;
  workers : int;
  reps : int;
  fault : string;
}

type request =
  | Hello of { version : int; tenant : string; caps : int }
  | Submit of submit
  | Poll of { ticket : int }
  | Stats
  | Shutdown

type grid = { gname : string; gshape : int list; gdata : float array }

type reply =
  | Welcome of { version : int; caps : int; server : string }
  | Accepted of { ticket : int }
  | Busy of { queue_depth : int }
  | Rejected of { ticket : int; code : string; message : string }
  | Pending of { ticket : int; running : bool }
  | Result of { ticket : int; elapsed_us : float; grids : grid list }
  | Stats_reply of { json : string }
  | Bye

(* ------------------------------------------------------------ encoding *)

let tag_hello = 0x01
let tag_submit = 0x02
let tag_poll = 0x03
let tag_stats = 0x04
let tag_shutdown = 0x05
let tag_welcome = 0x81
let tag_accepted = 0x82
let tag_busy = 0x83
let tag_rejected = 0x84
let tag_pending = 0x85
let tag_result = 0x86
let tag_stats_reply = 0x87
let tag_bye = 0x88

(* Unchecked big-endian 64-bit cell access: the grid loops check the
   whole grid's byte range once, not every cell. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let get_cell s pos =
  let v = get64u s pos in
  Int64.float_of_bits (if Sys.big_endian then v else bswap64 v)

let set_cell b pos x =
  let v = Int64.bits_of_float x in
  set64u b pos (if Sys.big_endian then v else bswap64 v)

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)

let put_u32 b v =
  if v < 0 || v > 0xFFFF_FFFF then invalid_arg "protocol: u32 out of range";
  Buffer.add_int32_be b (Int32.of_int v)

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let frame tag fill =
  let b = Buffer.create 64 in
  put_u8 b tag;
  fill b;
  let payload = Buffer.contents b in
  let out = Buffer.create (String.length payload + 4) in
  put_u32 out (String.length payload);
  Buffer.add_string out payload;
  Buffer.contents out

let encode_request = function
  | Hello { version; tenant; caps } ->
      frame tag_hello (fun b ->
          put_u32 b version;
          put_str b tenant;
          put_u32 b caps)
  | Submit { program; backend; workers; reps; fault } ->
      frame tag_submit (fun b ->
          put_str b program;
          put_str b backend;
          put_u32 b workers;
          put_u32 b reps;
          put_str b fault)
  | Poll { ticket } -> frame tag_poll (fun b -> put_u32 b ticket)
  | Stats -> frame tag_stats (fun _ -> ())
  | Shutdown -> frame tag_shutdown (fun _ -> ())

(* The one RESULT writer: the frame is sized first and filled in one
   pass, so it is never grown or copied. *)
let encode_result ~ticket ~elapsed_us grids =
  let payload =
    List.fold_left
      (fun acc (name, shape, cells) ->
        acc + 4 + String.length name + 4 + (4 * List.length shape) + 4
        + (8 * Float.Array.length cells))
      (1 + 4 + 8 + 4) grids
  in
  let b = Bytes.create (4 + payload) in
  let put_u32 pos v =
    if v < 0 || v > 0xFFFF_FFFF then invalid_arg "protocol: u32 out of range";
    Bytes.set_int32_be b pos (Int32.of_int v);
    pos + 4
  in
  let pos = put_u32 0 payload in
  Bytes.set_uint8 b pos tag_result;
  let pos = put_u32 (pos + 1) ticket in
  Bytes.set_int64_be b pos (Int64.bits_of_float elapsed_us);
  let pos =
    List.fold_left
      (fun pos (name, shape, cells) ->
        let len = String.length name in
        Bytes.blit_string name 0 b (put_u32 pos len) len;
        let pos = put_u32 (pos + 4 + len) (List.length shape) in
        let pos = List.fold_left put_u32 pos shape in
        let n = Float.Array.length cells in
        let pos = put_u32 pos n in
        for i = 0 to n - 1 do
          set_cell b (pos + (8 * i)) (Float.Array.unsafe_get cells i)
        done;
        pos + (8 * n))
      (put_u32 (pos + 8) (List.length grids))
      grids
  in
  assert (pos = Bytes.length b);
  Bytes.unsafe_to_string b

let encode_reply = function
  | Welcome { version; caps; server } ->
      frame tag_welcome (fun b ->
          put_u32 b version;
          put_u32 b caps;
          put_str b server)
  | Accepted { ticket } -> frame tag_accepted (fun b -> put_u32 b ticket)
  | Busy { queue_depth } -> frame tag_busy (fun b -> put_u32 b queue_depth)
  | Rejected { ticket; code; message } ->
      frame tag_rejected (fun b ->
          put_u32 b ticket;
          put_str b code;
          put_str b message)
  | Pending { ticket; running } ->
      frame tag_pending (fun b ->
          put_u32 b ticket;
          put_u8 b (if running then 1 else 0))
  | Result { ticket; elapsed_us; grids } ->
      encode_result ~ticket ~elapsed_us
        (List.map
           (fun g ->
             (g.gname, g.gshape, Float.Array.map_from_array Fun.id g.gdata))
           grids)
  | Stats_reply { json } -> frame tag_stats_reply (fun b -> put_str b json)
  | Bye -> frame tag_bye (fun _ -> ())

(* ------------------------------------------------------------ decoding *)

exception Bad of string

type cursor = { buf : string; mutable pos : int; stop : int }

let need c n what =
  if c.pos + n > c.stop then
    raise (Bad (Printf.sprintf "truncated %s at byte %d" what c.pos))

let get_u8 c what =
  need c 1 what;
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c what =
  need c 4 what;
  let v = Int32.to_int (String.get_int32_be c.buf c.pos) land 0xFFFF_FFFF in
  c.pos <- c.pos + 4;
  v

let get_u64 c what =
  need c 8 what;
  let v = String.get_int64_be c.buf c.pos in
  c.pos <- c.pos + 8;
  v

let get_f64 c what = Int64.float_of_bits (get_u64 c what)

let get_str c what =
  let n = get_u32 c what in
  need c n what;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let open_frame kind s =
  if String.length s < 5 then raise (Bad (kind ^ ": frame shorter than header"));
  let len = Int32.to_int (String.get_int32_be s 0) land 0xFFFF_FFFF in
  if len > max_frame then
    raise (Bad (Printf.sprintf "%s: frame of %d bytes exceeds max" kind len));
  if String.length s <> 4 + len then
    raise
      (Bad
         (Printf.sprintf "%s: length prefix %d but %d payload bytes" kind len
            (String.length s - 4)));
  let c = { buf = s; pos = 4; stop = String.length s } in
  let tag = get_u8 c "tag" in
  (tag, c)

let finish c v =
  if c.pos <> c.stop then
    raise (Bad (Printf.sprintf "%d trailing bytes after message" (c.stop - c.pos)));
  v

let decode_request s =
  match
    let tag, c = open_frame "request" s in
    if tag = tag_hello then
      let version = get_u32 c "version" in
      let tenant = get_str c "tenant" in
      let caps = get_u32 c "caps" in
      finish c (Hello { version; tenant; caps })
    else if tag = tag_submit then begin
      let program = get_str c "program" in
      let backend = get_str c "backend" in
      let workers = get_u32 c "workers" in
      let reps = get_u32 c "reps" in
      let fault = get_str c "fault" in
      finish c (Submit { program; backend; workers; reps; fault })
    end
    else if tag = tag_poll then finish c (Poll { ticket = get_u32 c "ticket" })
    else if tag = tag_stats then finish c Stats
    else if tag = tag_shutdown then finish c Shutdown
    else raise (Bad (Printf.sprintf "unknown request tag 0x%02x" tag))
  with
  | v -> Ok v
  | exception Bad m -> Error m

let decode_reply s =
  match
    let tag, c = open_frame "reply" s in
    if tag = tag_welcome then
      let version = get_u32 c "version" in
      let caps = get_u32 c "caps" in
      let server = get_str c "server" in
      finish c (Welcome { version; caps; server })
    else if tag = tag_accepted then
      finish c (Accepted { ticket = get_u32 c "ticket" })
    else if tag = tag_busy then
      finish c (Busy { queue_depth = get_u32 c "queue_depth" })
    else if tag = tag_rejected then begin
      let ticket = get_u32 c "ticket" in
      let code = get_str c "code" in
      let message = get_str c "message" in
      finish c (Rejected { ticket; code; message })
    end
    else if tag = tag_pending then begin
      let ticket = get_u32 c "ticket" in
      let running = get_u8 c "running" <> 0 in
      finish c (Pending { ticket; running })
    end
    else if tag = tag_result then begin
      let ticket = get_u32 c "ticket" in
      let elapsed_us = get_f64 c "elapsed_us" in
      let ngrids = get_u32 c "ngrids" in
      if ngrids > 4096 then raise (Bad "implausible grid count");
      (* Explicit in-order loops, not Array.init/List.init: the reads
         side-effect the cursor, and init's argument-evaluation order is
         unspecified before OCaml 5.1 — on older stdlibs an init-based
         read can scramble shapes and cell data.  The byte-for-byte
         golden in test_serve pins this ordering. *)
      let grids = ref [] in
      for _ = 1 to ngrids do
        let gname = get_str c "grid name" in
        let rank = get_u32 c "rank" in
        if rank > 16 then raise (Bad "implausible grid rank");
        let rshape = ref [] in
        for _ = 1 to rank do
          rshape := get_u32 c "extent" :: !rshape
        done;
        let n = get_u32 c "grid size" in
        need c (8 * n) "grid data";
        (* one bounds check for the whole grid, then unchecked reads *)
        let gdata = Array.create_float n in
        let base = c.pos in
        for i = 0 to n - 1 do
          Array.unsafe_set gdata i (get_cell c.buf (base + (8 * i)))
        done;
        c.pos <- base + (8 * n);
        grids := { gname; gshape = List.rev !rshape; gdata } :: !grids
      done;
      finish c (Result { ticket; elapsed_us; grids = List.rev !grids })
    end
    else if tag = tag_stats_reply then
      finish c (Stats_reply { json = get_str c "json" })
    else if tag = tag_bye then finish c Bye
    else raise (Bad (Printf.sprintf "unknown reply tag 0x%02x" tag))
  with
  | v -> Ok v
  | exception Bad m -> Error m

(* ------------------------------------------------------------ frame I/O *)

let rec retry_read fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_read fd buf off len

(* [what] names where a short read landed: an EOF inside the 4-byte
   length prefix and an EOF inside the announced payload are different
   failures (the first is a peer dying between frames mid-header, the
   second a peer dying mid-message), and the fuzzer asserts they stay
   distinguishable. *)
let read_exact fd buf ~off ~len ~what =
  let rec go k =
    if k < len then
      match retry_read fd buf (off + k) (len - k) with
      | 0 -> if k = 0 then false else raise (Bad ("EOF inside " ^ what))
      | r -> go (k + r)
    else true
  in
  go 0

(* The payload is read straight in behind the prefix: one allocation per
   frame, no concatenation. *)
let read_frame fd =
  try
    let prefix = Bytes.create 4 in
    if not (read_exact fd prefix ~off:0 ~len:4 ~what:"length prefix") then
      Ok None
    else
      let len = Int32.to_int (Bytes.get_int32_be prefix 0) land 0xFFFF_FFFF in
      if len > max_frame then
        Error (Printf.sprintf "incoming frame of %d bytes exceeds max" len)
      else
        let buf = Bytes.create (4 + len) in
        Bytes.blit prefix 0 buf 0 4;
        if read_exact fd buf ~off:4 ~len ~what:"frame payload" then
          Ok (Some (Bytes.unsafe_to_string buf))
        else Error "EOF inside frame payload"
  with
  | Bad m -> Error m
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

exception Closed

let write_frame fd s =
  let buf = Bytes.unsafe_of_string s in
  let n = Bytes.length buf in
  let wait_writable () =
    try ignore (Unix.select [] [ fd ] [] 1.0)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let rec go off =
    if off < n then
      match Unix.write fd buf off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* the contract is a blocking fd, but tolerate one handed to us
             in non-blocking mode: park until writable, then retry *)
          wait_writable ();
          go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          raise Closed
  in
  go 0

let read_request fd =
  match read_frame fd with
  | Ok None -> Ok None
  | Ok (Some s) -> Result.map Option.some (decode_request s)
  | Error _ as e -> e

let read_reply fd =
  match read_frame fd with
  | Ok None -> Ok None
  | Ok (Some s) -> Result.map Option.some (decode_reply s)
  | Error _ as e -> e

let write_request fd r = write_frame fd (encode_request r)
let write_reply fd r = write_frame fd (encode_reply r)
