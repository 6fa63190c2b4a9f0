(* Per-CPU scheduler: run queues, affinity masks, work stealing,
   migration under the coherence oracle, and the deterministic SMP
   executor driving it all. *)
open Outer_kernel

let boot ?(cpus = 2) ?coherence () =
  Os.boot ~frames:4096 ?coherence ~cpus Config.Perspicuos

let fork1 k =
  match Syscalls.fork k (Kernel.current_proc k) with
  | Ok pid -> pid
  | Error e -> Alcotest.failf "fork: %s" (Ktypes.errno_to_string e)

let test_least_loaded_placement () =
  let k = boot ~cpus:2 () in
  let s = Sched.create k in
  Alcotest.(check (list int)) "boot CPU seeded with init" [ 1 ]
    (Sched.queue_of s 0);
  let a = fork1 k and b = fork1 k and c = fork1 k in
  Sched.add s a;
  (* cpu1 is empty *)
  Sched.add s b;
  (* tie at 1/1: lowest id wins *)
  Sched.add s c;
  Alcotest.(check (list int)) "cpu0 queue" [ 1; b ] (Sched.queue_of s 0);
  Alcotest.(check (list int)) "cpu1 queue" [ a; c ] (Sched.queue_of s 1);
  Sched.add s a;
  Alcotest.(check int) "re-add is a no-op" 4 (List.length (Sched.queue s))

let test_affinity_mask () =
  let k = boot ~cpus:2 () in
  let s = Sched.create k in
  let a = fork1 k in
  Sched.add s a;
  Alcotest.(check (list int)) "placed on cpu1" [ a ] (Sched.queue_of s 1);
  Alcotest.(check int) "default mask allows all CPUs" 0b11
    (Sched.affinity_of s a);
  (* Pinning to cpu0 re-places the process off the forbidden queue. *)
  Sched.set_affinity s a 0b01;
  Alcotest.(check (list int)) "re-placed onto cpu0" [ 1; a ]
    (Sched.queue_of s 0);
  Alcotest.(check (list int)) "gone from cpu1" [] (Sched.queue_of s 1);
  (match Sched.migrate s a ~to_cpu:1 with
  | Error Ktypes.Einval -> ()
  | Ok () | Error _ ->
      Alcotest.fail "migration to a forbidden CPU must return Einval");
  Sched.set_affinity s a 0b11;
  Helpers.check_ok_errno "migration allowed again" (Sched.migrate s a ~to_cpu:1)

let test_work_stealing () =
  let k = boot ~cpus:2 () in
  let s = Sched.create k in
  let a = fork1 k and b = fork1 k in
  Sched.add_on s a 0;
  Sched.add_on s b 0;
  let w = Nkhw.Window.start k.Kernel.machine in
  (* cpu1's queue is empty: yielding there must steal from cpu0 —
     skipping pid 1, which is cpu0's running process. *)
  (match Sched.yield_on s 1 with
  | Ok pid -> Alcotest.(check int) "stole the first non-running pid" a pid
  | Error e -> Alcotest.failf "yield_on: %s" (Ktypes.errno_to_string e));
  Alcotest.(check int) "steal counted" 1
    (Nkhw.Window.count w Nktrace.Sched_steal);
  Alcotest.(check (list int)) "victim keeps its running process" [ 1; b ]
    (Sched.queue_of s 0);
  Alcotest.(check bool) "thief's running slot updated" true
    (k.Kernel.running.(1) = Some a)

let test_ctx_switch_charged_once () =
  let k = boot ~cpus:1 () in
  let s = Sched.create k in
  let m = k.Kernel.machine in
  let yield_once what =
    let w = Nkhw.Window.start m in
    Helpers.check_ok_errno what (Sched.yield s);
    (Nkhw.Window.count w Nktrace.Context_switch, Nkhw.Window.cycles w)
  in
  (* Only init queued: a yield is a self-switch and must cost nothing. *)
  let switches, cycles = yield_once "self yield" in
  Alcotest.(check int) "self-switch not counted" 0 switches;
  Alcotest.(check int) "self-switch charges zero cycles" 0 cycles;
  (* Two processes ping-pong: exactly one switch per yield, each
     charging at least the calibrated ctx_switch cost. *)
  Sched.add s (fork1 k);
  for _ = 1 to 4 do
    let switches, cycles = yield_once "ping-pong yield" in
    Alcotest.(check int) "one switch per yield" 1 switches;
    Alcotest.(check bool) "calibrated cost charged" true
      (cycles >= m.Nkhw.Machine.costs.Nkhw.Costs.ctx_switch)
  done

let churn k p tick cpu_hop =
  match Syscalls.mmap k p ~len:8192 ~rw:true ~populate:true () with
  | Ok va ->
      cpu_hop ();
      ignore (Syscalls.munmap k p va);
      ignore tick
  | Error _ -> ()

let test_migration_mid_mmap_coherent () =
  (* A process migrated between CPUs in the middle of an mmap/munmap
     pair: the differential oracle must never see a
     stale-and-more-permissive translation on any CPU. *)
  let k = boot ~cpus:2 ~coherence:true () in
  let s = Sched.create k in
  let pid = fork1 k in
  Sched.add s pid;
  let p = Option.get (Kernel.proc k pid) in
  let hops = ref 0 in
  let steps =
    Sched.run_smp s
      ~policy:(Nkhw.Smp.Executor.Seeded Helpers.sched_seed)
      ~steps:40
      (fun ~cpu pid' ->
        if pid' = pid then
          churn k p !hops (fun () ->
              incr hops;
              ignore (Sched.migrate s pid ~to_cpu:(1 - cpu)));
        true)
  in
  Alcotest.(check bool) "executor ran" true (steps > 0);
  Alcotest.(check bool) "process migrated mid-mapping" true (!hops > 0);
  let nk = Option.get k.Kernel.nk in
  Alcotest.(check int) "oracle saw no stale-permissive translation" 0
    (List.length (Nested_kernel.Api.Diagnostics.Coherence.snapshot nk))

let test_shootdowns_drain_before_dispatch () =
  (* Every executor quantum starts with an empty mailbox on the CPU it
     dispatches to: shootdown IPIs posted by peers are acknowledged
     before any migrated process runs there. *)
  let k = boot ~cpus:2 () in
  let s = Sched.create k in
  let pid = fork1 k in
  Sched.add s pid;
  let p = Option.get (Kernel.proc k pid) in
  let w = Nkhw.Window.start k.Kernel.machine in
  ignore
    (Sched.run_smp s
       ~policy:(Nkhw.Smp.Executor.Seeded Helpers.sched_seed)
       ~steps:40
       (fun ~cpu pid' ->
         Alcotest.(check int) "mailbox drained before the quantum" 0
           (Nkhw.Smp.pending_ipis k.Kernel.smp cpu);
         (* Hop mid-churn so the ASID is genuinely resident on both
            CPUs: shootdowns are residency/occupancy-targeted, so a
            process that never leaves its CPU posts no IPIs at all. *)
         if pid' = pid then
           churn k p 0 (fun () ->
               ignore (Sched.migrate s pid ~to_cpu:(1 - cpu)));
         true));
  Alcotest.(check bool) "shootdown IPIs were actually posted" true
    (Nkhw.Window.count w Nktrace.Ipi_shootdown > 0)

let trace_json seed =
  let k = Os.boot ~frames:4096 ~trace:true ~cpus:4 Config.Perspicuos in
  let s = Sched.create k in
  for _ = 1 to 5 do
    Sched.add s (fork1 k)
  done;
  ignore
    (Sched.run_smp s
       ~policy:(Nkhw.Smp.Executor.Seeded seed)
       ~steps:60
       (fun ~cpu:_ pid ->
         (match Kernel.proc k pid with
         | Some p -> churn k p 0 (fun () -> ())
         | None -> ());
         true));
  Nktrace.to_json (Nktrace.snapshot k.Kernel.machine.Nkhw.Machine.trace)

let test_trace_byte_identical () =
  let seed = Helpers.sched_seed in
  Alcotest.(check string) "same seed, byte-identical trace JSON"
    (trace_json seed) (trace_json seed);
  Alcotest.(check bool) "different seed, different trace" true
    (trace_json seed <> trace_json (seed + 1))

let test_scaling_point_reproducible () =
  let run () = Nk_workloads.Smp_scale.run_one ~seed:11 ~procs:6 ~steps:80 4 in
  let a = run () and b = run () in
  Alcotest.(check bool) "scaling point reproduces exactly" true (a = b);
  Alcotest.(check int) "per-CPU shootdown counts cover every CPU" 4
    (List.length a.Nk_workloads.Smp_scale.shootdowns)

let suite =
  [
    Alcotest.test_case "least-loaded placement" `Quick
      test_least_loaded_placement;
    Alcotest.test_case "affinity mask" `Quick test_affinity_mask;
    Alcotest.test_case "work stealing" `Quick test_work_stealing;
    Alcotest.test_case "ctx switch charged once per actual switch" `Quick
      test_ctx_switch_charged_once;
    Alcotest.test_case "migration mid-mmap stays coherent" `Quick
      test_migration_mid_mmap_coherent;
    Alcotest.test_case "shootdown IPIs drain before dispatch" `Quick
      test_shootdowns_drain_before_dispatch;
    Alcotest.test_case "trace JSON byte-identical for a seed" `Quick
      test_trace_byte_identical;
    Alcotest.test_case "scaling workload reproducible" `Quick
      test_scaling_point_reproducible;
  ]
