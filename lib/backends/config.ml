type schedule = Greedy_waves | Dag_levels

type t = {
  workers : int;
  tile : int list option;
  chunks : int;
  tall_skinny : int * int;
  multicolor : bool;
  schedule : schedule;
  inline_producers : bool;
  dce : dce;
  serial_cutoff : int;
  certify : bool;
  force_parallel : string list;
  fusion : bool;
  time_tile : int;
  time_block : int;
}

and dce = No_dce | Dce of string list

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v > 0 -> v
      | _ -> default)
  | None -> default

let env_flag name =
  match Sys.getenv_opt name with
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "1" | "true" | "yes" | "on" -> true
      | _ -> false)
  | None -> false

let default_workers = env_int "SF_WORKERS" 1
let default_serial_cutoff = env_int "SF_SERIAL_CUTOFF" 1024
let default_certify = env_flag "SF_VALIDATE"
let default_fusion = env_flag "SF_FUSION"

let default =
  {
    workers = default_workers;
    tile = None;
    chunks = 8;
    tall_skinny = (8, 64);
    multicolor = false;
    schedule = Greedy_waves;
    inline_producers = false;
    dce = No_dce;
    serial_cutoff = default_serial_cutoff;
    certify = default_certify;
    force_parallel = [];
    fusion = default_fusion;
    time_tile = 1;
    time_block = 0;
  }

let with_workers workers t = { t with workers }
