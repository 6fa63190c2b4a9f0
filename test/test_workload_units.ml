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

(* Acceptance gates: a passing sweep returns [], and every bound has a
   doctored sweep whose message names it — so deleting any one bound
   fails a case here. *)

let expect_gates name check ok doctored =
  Alcotest.(check (list string)) (name ^ ": clean sweep passes") [] (check ok);
  List.iter
    (fun (fragment, points) ->
      let msgs = check points in
      if not (List.exists (fun m -> Astring_contains.contains m fragment) msgs)
      then
        Alcotest.failf "%s: no message names %S, got [%s]" name fragment
          (String.concat " | " msgs))
    doctored

(* [tweak sel f points]: [f] applied to the points [sel] picks. *)
let tweak sel f = List.map (fun p -> if sel p then f p else p)

let test_smp_scale_gates () =
  let point cpus : Smp_scale.point =
    {
      cpus; seed = 42; steps = 4000; syscalls = 6004; cycles = 11_846_538;
      throughput = 500. +. float_of_int cpus; shootdowns = [ 0 ]; ipis = 100;
      sent = 90; filtered = 10; coalesced = 14; deferred = 1000; reuse = 1000;
      steals = 0; migrations = 0; oracle_violations = 0; audit_failures = 0;
    }
  in
  let ok = List.map point [ 8; 1; 4; 2 ] in
  let at n = tweak (fun (p : Smp_scale.point) -> p.cpus = n) in
  expect_gates "smp_scaling" Smp_scale.check ok
    [
      ("syscalls_per_mcycle", at 4 (fun p -> { p with throughput = 1. }) ok);
      ("ipi_shootdowns at 8", at 8 (fun p -> { p with ipis = 7560 }) ok);
      ( "ipi_shootdowns at 8 vCPUs is missing",
        List.filter (fun (p : Smp_scale.point) -> p.cpus <> 8) ok );
      ( "2 vCPUs: oracle_violations",
        at 2 (fun p -> { p with oracle_violations = 1 }) ok );
      ("1 vCPUs: audit_failures", at 1 (fun p -> { p with audit_failures = 1 }) ok);
      ("shootdown_coalesced", at 8 (fun p -> { p with coalesced = 0 }) ok);
      ( "4 vCPUs: flush_deferred - flush_on_reuse = 1",
        at 4 (fun p -> { p with reuse = 999 }) ok );
    ]

let test_smp_scale_gates_real_sweep () =
  Alcotest.(check (list string)) "a short real sweep passes" []
    (Smp_scale.check (Smp_scale.run ~seed:42 ~steps:400 ()))

let test_server_scale_gates () =
  let point config conns : Server_scale.point =
    {
      config; conns; seed = 42; steps = 1000; live_peak = conns / 2 + 1;
      accepted = conns; completed = conns; gets = 1; sets = 1; p50 = 1000;
      p99 = 4_000_000; p999 = 6_000_000; fd_op_cycles = 2304;
      accepts_local = conns - 5; accepts_steal = 5; backlog_drops = 0;
      epoll_wakeups = 1; slab_hits = 1; slab_refills = 1; cycles = 1_000_000;
      host_secs = 0.1; oracle_violations = 0; audit_failures = 0;
    }
  in
  let ok =
    List.concat_map
      (fun c -> List.map (point c) [ 1_000; 5_000; 10_000; 50_000; 100_000 ])
      [ Config.Native; Config.Perspicuos ]
  in
  let at c n =
    tweak (fun (p : Server_scale.point) -> p.config = c && p.conns = n)
  in
  let nk = Config.Perspicuos and native = Config.Native in
  expect_gates "server_scale" Server_scale.check ok
    [
      ("swept only 9 points", List.tl ok);
      ( "perspicuos/5000: oracle_violations",
        at nk 5_000 (fun p -> { p with oracle_violations = 2 }) ok );
      ( "native/1000: audit_failures",
        at native 1_000 (fun p -> { p with audit_failures = 1 }) ok );
      ( "backlog_drops = 3",
        at nk 50_000 (fun p -> { p with backlog_drops = 3 }) ok );
      ( "native/10000: accepted - accepts_local - accepts_steal = -1",
        at native 10_000 (fun p -> { p with accepts_steal = 6 }) ok );
      ( "native: fd_op_cycles is not flat",
        at native 100_000 (fun p -> { p with fd_op_cycles = 2305 }) ok );
      ( "perspicuos: live_peak at 100k is 49999",
        at nk 100_000 (fun p -> { p with live_peak = 49_999 }) ok );
      ( "native: live_peak at 100k is missing",
        List.filter
          (fun (p : Server_scale.point) ->
            not (p.config = native && p.conns = 100_000))
          ok );
      ( "perspicuos: p99 at 10k",
        at nk 10_000 (fun p -> { p with p99 = 5_000_001 }) ok );
    ]

let test_multitenant_gates () =
  let point config tenants : Multitenant.point =
    {
      config; tenants; conns = 400; seed = 42; steps = 1400; per_tenant = [];
      completed = 1000; p50 = 1; p99 = 2; p999 = 3;
      throughput =
        (match config with
        | Config.Hyper -> 30.
        | Config.Native -> 68.
        | _ -> 62.);
      xdom_denials = 0; vmcalls = 0; sched_epochs = 0; pipe_words = 0;
      teardown_leaks = 0; cycles = 1_000_000; host_secs = 0.1;
      oracle_violations = 0; audit_failures = 0;
    }
  in
  let ok =
    List.concat_map
      (fun c -> List.map (point c) [ 4; 8; 16 ])
      [ Config.Perspicuos; Config.Native; Config.Hyper ]
  in
  let at c n =
    tweak (fun (p : Multitenant.point) -> p.config = c && p.tenants = n)
  in
  expect_gates "multitenant" Multitenant.check ok
    [
      ("swept only 8 points", List.tl ok);
      ( "perspicuos/16: oracle_violations",
        at Config.Perspicuos 16 (fun p -> { p with oracle_violations = 1 }) ok );
      ( "hyper/4: audit_failures",
        at Config.Hyper 4 (fun p -> { p with audit_failures = 1 }) ok );
      ( "perspicuos/8: xdom_denials = 1",
        at Config.Perspicuos 8 (fun p -> { p with xdom_denials = 1 }) ok );
      ( "native/16: teardown_leaks = 4",
        at Config.Native 16 (fun p -> { p with teardown_leaks = 4 }) ok );
      ( "below 2x hyper",
        at Config.Hyper 8 (fun p -> { p with throughput = 31.5 }) ok );
      ( "below 0.85x native",
        at Config.Native 8 (fun p -> { p with throughput = 73. }) ok );
    ]

let test_bench_gates () =
  expect_gates "gc"
    (fun (syscall, traced, open_close) ->
      Bench_gates.gc ~syscall ~traced ~open_close)
    (2., 8., 256.)
    [
      ("minor_words_per_syscall = 8.01 > 8", (8.01, 2., 115.));
      ("minor_words_per_syscall_traced = 9.00", (2., 9., 115.));
      ("minor_words_per_open_close = 257.00", (2., 2., 257.));
    ];
  expect_gates "coherence"
    (fun (off, on) -> Bench_gates.coherence ~baseline:91310 ~off ~on)
    (91310, 91310)
    [
      ("oracle_off_cycles - baseline_cycles = 1", (91311, 91310));
      ("oracle_on_cycles - baseline_cycles = 90", (91310, 91400));
    ]

(* A bench JSON carrying just the gated wallclock rates. *)
let wallclock_json ?(soak = true) smp soak_rate native nk =
  let module J = Nktrace.Json in
  let server config conns rate =
    J.Obj
      [ ("config", Str config); ("conns", Int conns); ("wallclock", Num (rate, 0)) ]
  in
  J.Obj
    ([ ("smp_scaling", J.Obj [ ("wallclock", Num (smp, 0)) ]) ]
    @ (if soak then
         [ ("fault_soak", J.Obj [ ("wallclock", Num (soak_rate, 0)) ]) ]
       else [])
    @ [
        ( "server_scale",
          Obj
            [
              ( "points",
                List
                  [
                    server "native" 1_000 1.;
                    server "native" 10_000 native;
                    server "perspicuos" 10_000 nk;
                  ] );
            ] );
      ])

let test_wallclock_gate () =
  let base = wallclock_json 100. 100. 100. 100. in
  expect_gates "wallclock"
    (fun fresh -> Bench_gates.wallclock ~baseline:base fresh)
    (wallclock_json 75. 80. 90. 1000.)
    [
      ( "smp_scaling: 74 cycles/s is more than 25% below the baseline's 100",
        wallclock_json 74. 100. 100. 100. );
      ("server_scale/perspicuos/10k", wallclock_json 100. 100. 100. 50.);
      ( "fault_soak: no fresh wallclock",
        wallclock_json ~soak:false 100. 0. 100. 100. );
    ];
  Alcotest.(check (list string)) "a baseline without the key fails too"
    [ "fault_soak: the baseline has no wallclock" ]
    (Bench_gates.wallclock
       ~baseline:(wallclock_json ~soak:false 1. 0. 1. 1.)
       base)

(* The committed run is CI's wallclock baseline: it must parse in its
   spaced layout and yield the four gated rates it holds.  Re-recording
   BENCH_nksim.json means updating these values. *)
let test_committed_baseline () =
  let text =
    In_channel.with_open_bin "../BENCH_nksim.json" In_channel.input_all
  in
  match Nktrace.Json.of_string text with
  | Error e -> Alcotest.failf "BENCH_nksim.json: %s" e
  | Ok json ->
      Alcotest.(check (list (pair string (option (float 0.)))))
        "wallclocks"
        [
          ("smp_scaling", Some 118446538.);
          ("fault_soak", Some 849919439.);
          ("server_scale/native/10k", Some 593328445.);
          ("server_scale/perspicuos/10k", Some 465377703.);
        ]
        (Bench_gates.wallclocks json);
      Alcotest.(check (list string)) "passes against itself" []
        (Bench_gates.wallclock ~baseline:json json)

let test_fault_soak_json_explains_survived () =
  let r : Fault_soak.result =
    {
      seed = 7; rate = 0.01; ops = 10; completed = 5; degraded = 5;
      injected = [ ("frame", 1) ]; total_injected = 1; escaped_exceptions = 0;
      escapes = []; coherence_violations = 0; invariant_failures = 0;
      flush_deferred = 4; flush_drained = 3; deferred_live = 1; cycles = 100;
    }
  in
  let json = Fault_soak.to_json ~host_secs:0.5 r in
  let field k = Nktrace.Json.get [ k ] json in
  Alcotest.(check bool) "survived is false" true
    (field "survived" = Some (Bool false));
  Alcotest.(check bool) "and the JSON shows why" true
    (field "flush_deferred" = Some (Int 4)
    && field "flush_drained" = Some (Int 3)
    && field "deferred_live" = Some (Int 1))

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
    Alcotest.test_case "smp_scaling gates" `Quick test_smp_scale_gates;
    Alcotest.test_case "smp_scaling gates pass a real sweep" `Quick
      test_smp_scale_gates_real_sweep;
    Alcotest.test_case "server_scale gates" `Quick test_server_scale_gates;
    Alcotest.test_case "multitenant gates" `Quick test_multitenant_gates;
    Alcotest.test_case "gc and coherence gates" `Quick test_bench_gates;
    Alcotest.test_case "wallclock gate" `Quick test_wallclock_gate;
    Alcotest.test_case "committed baseline parses" `Quick
      test_committed_baseline;
    Alcotest.test_case "fault-soak JSON explains survived" `Quick
      test_fault_soak_json_explains_survived;
  ]
