open Outer_kernel
open Nk_workloads

(* Unit-level coverage of the workload machinery itself: generator
   determinism, statistics helpers, configuration parsing, table
   rendering. *)

let test_config_names () =
  List.iter
    (fun c ->
      match Config.of_name (Config.name c) with
      | Some c' -> Alcotest.(check string) "roundtrip" (Config.name c) (Config.name c')
      | None -> Alcotest.failf "name %s did not parse" (Config.name c))
    Config.all;
  Alcotest.(check bool) "unknown rejected" true (Config.of_name "windows" = None);
  Alcotest.(check bool) "case insensitive" true
    (Config.of_name "NATIVE" = Some Config.Native);
  Alcotest.(check bool) "native not nested" false (Config.is_nested Config.Native);
  Alcotest.(check int) "five systems" 5 (List.length Config.all)

let test_stats_helpers () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "stddev" 1.0 (Stats.stddev [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "stddev singleton" 0.0 (Stats.stddev [ 5. ]);
  Alcotest.(check (float 1e-9)) "overhead" 10.0
    (Stats.pct_overhead ~native:100. ~sys:110.);
  Alcotest.(check (float 1e-9)) "relative" 1.1
    (Stats.relative ~native:100. ~sys:110.)

let test_table_render () =
  let t =
    {
      Stats.title = "t";
      columns = [ "a"; "b" ];
      rows = [ [ "x"; "1" ]; [ "longer"; "22" ] ];
      notes = [ "n" ];
    }
  in
  let out = Format.asprintf "%a" Stats.render t in
  Alcotest.(check bool) "title present" true
    (Astring_contains.contains out "== t ==");
  Alcotest.(check bool) "note present" true (Astring_contains.contains out "note: n")

let test_bar_chart_render () =
  let out =
    Format.asprintf "%t" (fun ppf ->
        Stats.bar_chart ~title:"c" ~max_value:2.0 [ ("x", 1.0); ("y", 2.0) ] ppf)
  in
  Alcotest.(check bool) "has bars" true (Astring_contains.contains out "#");
  Alcotest.(check bool) "has values" true (Astring_contains.contains out "2.00")

let test_binary_gen_deterministic () =
  let a = Binary_gen.generate ~seed:7 ~benign_blocks:50 ~implicit_cr0:1 ~implicit_wrmsr:4 () in
  let b = Binary_gen.generate ~seed:7 ~benign_blocks:50 ~implicit_cr0:1 ~implicit_wrmsr:4 () in
  Alcotest.(check bool) "same seed, same binary" true
    (Bytes.equal (Nkhw.Insn.assemble a) (Nkhw.Insn.assemble b));
  let c = Binary_gen.generate ~seed:8 ~benign_blocks:50 ~implicit_cr0:1 ~implicit_wrmsr:4 () in
  Alcotest.(check bool) "different seed, different binary" false
    (Bytes.equal (Nkhw.Insn.assemble a) (Nkhw.Insn.assemble c))

let test_binary_gen_zero_seeds () =
  let p = Binary_gen.generate ~benign_blocks:80 ~implicit_cr0:0 ~implicit_wrmsr:0 () in
  Alcotest.(check bool) "benign program is pattern-free" true
    (Nested_kernel.Scanner.is_clean (Nkhw.Insn.assemble p))

let test_sample_outputs_stable () =
  let p = Binary_gen.paper_kernel () in
  Alcotest.(check bool) "pure function" true
    (Binary_gen.sample_outputs p = Binary_gen.sample_outputs p)

let test_boundary_table_shape () =
  let r = Boundary.run ~iterations:500 () in
  let t = Boundary.to_table r in
  Alcotest.(check int) "three boundaries" 3 (List.length t.Stats.rows);
  Alcotest.(check int) "five columns" 5 (List.length t.Stats.columns)

let test_lmbench_bench_names () =
  Alcotest.(check (list string)) "the paper's eight benchmarks"
    [
      "null syscall";
      "open/close";
      "mmap";
      "page fault";
      "signal handler install";
      "signal handler delivery";
      "fork + exit";
      "fork + exec";
    ]
    (List.map (fun (b : Lmbench.bench) -> b.Lmbench.name) Lmbench.benches)

let test_sshd_sizes_match_figure () =
  Alcotest.(check (list int)) "figure 5 x-axis"
    [ 1; 4; 16; 64; 256; 1024; 4096; 16384 ]
    Sshd.sizes_kb

let test_apache_sizes_match_figure () =
  Alcotest.(check int) "figure 6 reaches 1 GB" 1048576
    (List.nth Apache.sizes_kb (List.length Apache.sizes_kb - 1))

(* The close-out runs drain -> sweep -> audit: an unmap parked on the
   deferred queue is flushed before the oracle's final sweep judges
   the TLBs, and the window sees every parked flush fire. *)
let test_closeout_drains_first () =
  let k = Helpers.kernel Config.Perspicuos in
  let h = Harness.arm k in
  let nk = Option.get k.Kernel.nk in
  let p = Kernel.current_proc k in
  let w = Nkhw.Window.start k.Kernel.machine in
  let va =
    Result.get_ok (Syscalls.mmap k p ~len:4096 ~rw:true ~populate:true ())
  in
  Helpers.check_ok_errno "touch" (Kernel.touch_user k p va Nkhw.Fault.Write);
  Helpers.check_ok_errno "munmap" (Syscalls.munmap k p va);
  Alcotest.(check bool) "an unmap is parked" true
    (Nested_kernel.Api.nk_deferred_live nk > 0);
  Alcotest.(check (pair int int)) "clean close-out" (0, 0) (Harness.close h);
  Alcotest.(check int) "queue drained" 0
    (Nested_kernel.Api.nk_deferred_live nk);
  let count = Nkhw.Window.count w in
  Alcotest.(check bool) "flushes were deferred" true
    (count Nktrace.Flush_deferred > 0);
  Alcotest.(check int) "every deferred flush fired"
    (count Nktrace.Flush_deferred) (count Nktrace.Flush_on_reuse);
  let native = Harness.arm (Helpers.kernel Config.Native) in
  Alcotest.(check (pair int int)) "native close-out" (0, 0)
    (Harness.close native)

let suite =
  [
    Alcotest.test_case "config names" `Quick test_config_names;
    Alcotest.test_case "stats helpers" `Quick test_stats_helpers;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "bar chart rendering" `Quick test_bar_chart_render;
    Alcotest.test_case "binary generator deterministic" `Quick
      test_binary_gen_deterministic;
    Alcotest.test_case "benign binaries are clean" `Quick test_binary_gen_zero_seeds;
    Alcotest.test_case "sample_outputs stable" `Quick test_sample_outputs_stable;
    Alcotest.test_case "boundary table shape" `Quick test_boundary_table_shape;
    Alcotest.test_case "lmbench covers figure 4" `Quick test_lmbench_bench_names;
    Alcotest.test_case "sshd covers figure 5" `Quick test_sshd_sizes_match_figure;
    Alcotest.test_case "apache covers figure 6" `Quick test_apache_sizes_match_figure;
    Alcotest.test_case "close-out drains, sweeps, audits" `Quick
      test_closeout_drains_first;
  ]
