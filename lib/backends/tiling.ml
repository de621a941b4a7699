open Sf_util
open Snowflake

(* Sub-lattice of [r] covering point indices [first, first+count) along one
   axis (indices count lattice points, not coordinates). *)
let slice_axis (r : Domain.resolved) axis ~first ~count =
  let rlo = Array.copy r.Domain.rlo
  and rhi = Array.copy r.Domain.rhi
  and rstride = Array.copy r.Domain.rstride in
  let s = rstride.(axis) in
  rlo.(axis) <- r.Domain.rlo.(axis) + (first * s);
  rhi.(axis) <- rlo.(axis) + (((count - 1) * s) + 1);
  Domain.{ rlo; rhi; rstride }

let axis_blocks total tile =
  if tile <= 0 then invalid_arg "Tiling: non-positive tile size";
  let nblocks = (total + tile - 1) / tile in
  List.init nblocks (fun b ->
      let first = b * tile in
      (first, min tile (total - first)))

let split ~tile r =
  let cnt = Domain.counts r in
  let n = Ivec.dims cnt in
  if List.length tile <> n then invalid_arg "Tiling.split: rank mismatch";
  if Domain.is_empty r then []
  else
    let tile = Array.of_list tile in
    let rec go axis acc =
      if axis >= n then [ acc ]
      else
        axis_blocks cnt.(axis) tile.(axis)
        |> List.concat_map (fun (first, count) ->
               go (axis + 1) (slice_axis acc axis ~first ~count))
    in
    go 0 r

let split_axis ~axis ~tile r =
  let cnt = Domain.counts r in
  if axis < 0 || axis >= Ivec.dims cnt then
    invalid_arg "Tiling.split_axis: axis out of range";
  if Domain.is_empty r then []
  else
    axis_blocks cnt.(axis) tile
    |> List.map (fun (first, count) -> slice_axis r axis ~first ~count)

let split_outer ~chunks r =
  if chunks <= 0 then invalid_arg "Tiling.split_outer: non-positive chunks";
  if Domain.is_empty r then []
  else begin
    let cnt = Domain.counts r in
    (* outermost axis with more than one point, if any *)
    let axis =
      let rec find i =
        if i >= Ivec.dims cnt then 0
        else if cnt.(i) > 1 then i
        else find (i + 1)
      in
      find 0
    in
    let tile = max 1 ((cnt.(axis) + chunks - 1) / chunks) in
    split_axis ~axis ~tile r
  end

let tall_skinny ~tile:(trows, tcols) r =
  let cnt = Domain.counts r in
  let n = Ivec.dims cnt in
  if Domain.is_empty r then []
  else if n = 1 then split_axis ~axis:0 ~tile:tcols r
  else
    split_axis ~axis:(n - 2) ~tile:trows r
    |> List.concat_map (split_axis ~axis:(n - 1) ~tile:tcols)

(* Intersect with the coordinate half-open window [lo, hi) on one axis,
   keeping the stride congruence class: the clipped lattice starts at the
   first original lattice point >= lo.  Consecutive windows therefore
   partition the lattice exactly — the property the skewed time-tile
   slabs rely on. *)
let clip_axis ~axis ~lo ~hi (r : Domain.resolved) =
  let s = r.Domain.rstride.(axis) in
  let rlo0 = r.Domain.rlo.(axis) and rhi0 = r.Domain.rhi.(axis) in
  let lo = max lo rlo0 and hi = min hi rhi0 in
  if lo >= hi then None
  else begin
    (* first lattice point >= lo in rlo0's congruence class mod s
       (lo >= rlo0 here, so the division is over non-negatives) *)
    let start = rlo0 + (((lo - rlo0 + s - 1) / s) * s) in
    if start >= hi then None
    else begin
      let rlo = Array.copy r.Domain.rlo and rhi = Array.copy r.Domain.rhi in
      rlo.(axis) <- start;
      rhi.(axis) <- hi;
      Some Domain.{ rlo; rhi; rstride = Array.copy r.Domain.rstride }
    end
  end
