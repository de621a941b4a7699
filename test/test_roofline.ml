open Sf_util
open Snowflake
open Sf_roofline

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let iv = Ivec.of_list

let test_machines () =
  check_float "i7 bandwidth" 22.2 Machine.i7_4765t.Machine.bandwidth_gbs;
  check_float "k20c bandwidth" 127. Machine.k20c.Machine.bandwidth_gbs;
  check_bool "i7 is cpu" true (Machine.i7_4765t.Machine.kind = `Cpu);
  check_bool "k20c is gpu" true (Machine.k20c.Machine.kind = `Gpu);
  let h = Machine.host ~bandwidth_gbs:12.5 () in
  check_float "host bw" 12.5 h.Machine.bandwidth_gbs

let test_stream_dot () =
  let a = Float.Array.of_list [ 1.; 2.; 3. ] in
  let b = Float.Array.of_list [ 4.; 5.; 6. ] in
  check_float "dot" 32. (Stream.dot a b);
  (* mismatched lengths: uses the shorter prefix *)
  let c = Float.Array.of_list [ 1.; 1. ] in
  check_float "prefix dot" 3. (Stream.dot a c)

let test_stream_measure () =
  let bw = Stream.measure ~n:200_000 ~trials:2 () in
  check_bool "positive bandwidth" true (bw > 0.01);
  check_bool "below 10 TB/s sanity" true (bw < 10_000.)

let test_paper_byte_counts () =
  check_float "cc 7pt" 24. Bound.bytes_cc_7pt;
  check_float "jacobi" 40. Bound.bytes_cc_jacobi;
  check_float "gsrb" 64. Bound.bytes_vc_gsrb

let test_bytes_of_stencil () =
  (* out-of-place single-input stencil: 8 read + 16 write = paper's 24 *)
  let lap =
    Stencil.make ~label:"lap" ~output:"out"
      ~expr:Expr.(read "u" (iv [ -1 ]) +: read "u" (iv [ 1 ]))
      ~domain:(Domain.interior 1 ~ghost:1)
      ()
  in
  check_float "cc stencil traffic" 24. (Bound.bytes_of_stencil lap);
  (* in-place: no separate write-allocate *)
  let inplace = Stencil.rename_output lap "u" in
  check_float "in-place traffic" 16. (Bound.bytes_of_stencil inplace);
  (* GSRB reads 6 grids and writes one of them: 6*8 + 8 *)
  let gsrb = Sf_hpgmg.Nd.(gsrb_sweep (vc ~dims:3) ~ncolors:2 ~color:0) in
  check_float "gsrb traffic" 56. (Bound.bytes_of_stencil gsrb)

let test_bounds_arithmetic () =
  let machine = Machine.host ~bandwidth_gbs:24. () in
  check_float "stencils/s" 1e9
    (Bound.stencils_per_second ~machine ~bytes_per_stencil:24.);
  check_float "sweep time" 1e-3
    (Bound.sweep_time ~machine ~bytes_per_stencil:24. ~points:1_000_000);
  check_float "derate doubles time" 2e-3
    (Bound.predict_time ~machine ~derate:2. ~bytes_per_stencil:24.
       ~points:1_000_000 ());
  (* paper's headline bound: K20c at 64 B/stencil ≈ 1.98 Gstencil/s *)
  let k20_gsrb =
    Bound.stencils_per_second ~machine:Machine.k20c ~bytes_per_stencil:64.
  in
  check_bool "k20 gsrb bound ~2G" true
    (k20_gsrb > 1.9e9 && k20_gsrb < 2.1e9)

let () =
  Alcotest.run "sf_roofline"
    [
      ( "machines",
        [ Alcotest.test_case "presets" `Quick test_machines ] );
      ( "stream",
        [
          Alcotest.test_case "dot" `Quick test_stream_dot;
          Alcotest.test_case "measure" `Quick test_stream_measure;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "paper byte counts" `Quick
            test_paper_byte_counts;
          Alcotest.test_case "bytes of stencil" `Quick test_bytes_of_stencil;
          Alcotest.test_case "arithmetic" `Quick test_bounds_arithmetic;
        ] );
    ]
