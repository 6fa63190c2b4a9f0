(* Targeted TLB shootdowns: per-ASID residency filtering, batch
   coalescing and lazy unmap invalidation — the edges where a skipped
   or late flush would turn into a stale translation. *)
open Nkhw
open Outer_kernel

let page = Addr.page_size

let boot ?(cpus = 1) ?coherence () =
  Os.boot ~frames:4096 ?coherence ~cpus Config.Perspicuos

let fork1 k =
  match Syscalls.fork k (Kernel.current_proc k) with
  | Ok pid -> pid
  | Error e -> Alcotest.failf "fork: %s" (Ktypes.errno_to_string e)

let mmap_ok k p ~pages ~populate =
  match Syscalls.mmap k p ~len:(pages * page) ~rw:true ~populate () with
  | Ok va -> va
  | Error e -> Alcotest.failf "mmap: %s" (Ktypes.errno_to_string e)

(* The scaling workload must actually exercise work stealing: every
   child is piled onto the boot CPU, so idle APs have to pull their
   share over — and the whole sweep stays oracle- and audit-clean. *)
let test_smp_scale_steals () =
  List.iter
    (fun cpus ->
      let p = Nk_workloads.Smp_scale.run_one ~coherence:true cpus in
      Alcotest.(check bool)
        (Printf.sprintf "steals exercised at %d vCPUs" cpus)
        true
        (p.Nk_workloads.Smp_scale.steals > 0);
      Alcotest.(check int)
        (Printf.sprintf "oracle clean at %d vCPUs" cpus)
        0 p.Nk_workloads.Smp_scale.oracle_violations;
      Alcotest.(check int)
        (Printf.sprintf "invariants clean at %d vCPUs" cpus)
        0 p.Nk_workloads.Smp_scale.audit_failures)
    [ 2; 4 ]

(* A process that migrates between the populate and the unmap: the
   munmap's batched downgrade must still cover the TLB the touch
   filled on the CPU left behind. *)
let test_migration_mid_batch () =
  let k = boot ~cpus:2 ~coherence:true () in
  let s = Sched.create k in
  let pid = fork1 k in
  Sched.add s pid;
  let p = Option.get (Kernel.proc k pid) in
  let hops = ref 0 in
  ignore
    (Sched.run_smp s
       ~policy:(Smp.Executor.Seeded Helpers.sched_seed)
       ~steps:40
       (fun ~cpu pid' ->
         if pid' = pid then (
           match Syscalls.mmap k p ~len:(4 * page) ~rw:true ~populate:true ()
           with
           | Ok va ->
               ignore (Kernel.touch_user k p va Fault.Write);
               incr hops;
               ignore (Sched.migrate s pid ~to_cpu:(1 - cpu));
               ignore (Syscalls.munmap k p va)
           | Error _ -> ());
         true));
  Alcotest.(check bool) "process migrated mid-batch" true (!hops > 0);
  Alcotest.(check (pair int int))
    "oracle and audit clean across migrated batched unmaps" (0, 0)
    (Nk_workloads.Harness.settle (Option.get k.Kernel.nk))

(* An ASID-wide shootdown retires the whole residency mask, and the
   next access under the tag re-joins the target set (the memo must
   not short-circuit the re-noting). *)
let test_residency_reset () =
  let k = boot ~cpus:2 () in
  let m = k.Kernel.machine in
  let p = Kernel.current_proc k in
  Alcotest.(check bool) "PCID tagging is on" true (Cr.pcid_enabled m.Machine.cr);
  let asid = Cr.pcid m.Machine.cr in
  Alcotest.(check bool) "boot CPU resident for the live ASID" true
    (Machine.residency m ~asid land 1 <> 0);
  Machine.shootdown_asid m ~asid;
  Alcotest.(check int) "shootdown retires the residency mask" 0
    (Machine.residency m ~asid);
  let va = mmap_ok k p ~pages:1 ~populate:true in
  Helpers.check_ok "user access after the wipe"
    (Machine.write_u8 m ~ring:Mmu.User va 7);
  Alcotest.(check bool) "access re-notes residency" true
    (Machine.residency m ~asid land 1 <> 0)

(* A frame parked on the lazy queue gets reused under a different
   ASID: the allocator's reuse barrier must fire before the frame can
   carry the new address space's data, and the original owner's stale
   translation must be gone. *)
let test_deferred_reuse_cross_asid () =
  let k = boot ~coherence:true () in
  let m = k.Kernel.machine in
  let p = Kernel.current_proc k in
  let nk = Option.get k.Kernel.nk in
  let child = fork1 k in
  let va = mmap_ok k p ~pages:4 ~populate:true in
  Helpers.check_ok "touch fills the TLB"
    (Machine.write_u8 m ~ring:Mmu.User va 7);
  Helpers.check_ok_errno "munmap" (Syscalls.munmap k p va);
  Alcotest.(check bool) "unmap parked on the lazy queue" true
    (Nested_kernel.Api.nk_deferred_live nk > 0);
  let w = Window.start m in
  Helpers.check_ok_errno "switch to child" (Kernel.switch_to k child);
  let cp = Option.get (Kernel.proc k child) in
  ignore (mmap_ok k cp ~pages:8 ~populate:true);
  Alcotest.(check bool) "reuse barrier fired under the child's ASID" true
    (Window.count w Nktrace.Flush_on_reuse > 0);
  Helpers.check_ok_errno "switch back" (Kernel.switch_to k p.Proc.pid);
  Helpers.expect_fault "stale translation gone after reuse"
    (Machine.write_u8 m ~ring:Mmu.User va 7);
  Alcotest.(check int) "oracle clean" 0
    (List.length (Nested_kernel.Api.Diagnostics.Coherence.snapshot nk))

(* Residency filtering must never outrun the occupancy probe: a parked
   TLB holding a live entry under an ASID no residency record knows
   about still gets the IPI, while a genuinely empty peer is skipped. *)
let test_parked_peer_occupancy () =
  let k = boot ~cpus:3 () in
  let m = k.Kernel.machine in
  let asid = 7 and vpage = 0x1234 in
  let t1 =
    if Array.length m.Machine.peer_tlbs > 0 then m.Machine.peer_tlbs.(0)
    else Alcotest.fail "no parked peers"
  in
  Tlb.insert t1 ~asid ~vpage
    { Tlb.frame = 42; writable = true; user = true; nx = false; global = false };
  Alcotest.(check int) "no residency for the parked tag" 0
    (Machine.residency m ~asid);
  let w = Window.start m in
  Machine.shootdown_page m ~scope:(Machine.Asids [ asid ]) ~vpage;
  Alcotest.(check int) "occupied parked peer still IPI'd" 1
    (Window.count w Nktrace.Shootdown_sent);
  Alcotest.(check int) "empty peer filtered" 1
    (Window.count w Nktrace.Shootdown_filtered);
  Alcotest.(check bool) "parked entry flushed" true
    (Tlb.peek t1 ~asid ~vpage = None)

(* fork's COW pass downgrades every writable parent leaf in one
   write_pte_batch: under the batched vMMU backend, contiguous
   same-scope page invalidations must coalesce into span shootdowns
   instead of going out one by one. *)
let test_batch_coalescing () =
  let k = Os.boot ~frames:4096 ~batched:true Config.Perspicuos in
  let p = Kernel.current_proc k in
  ignore (mmap_ok k p ~pages:8 ~populate:true);
  let w = Window.start k.Kernel.machine in
  ignore (fork1 k);
  Alcotest.(check bool) "COW downgrade batch coalesced" true
    (Window.count w Nktrace.Shootdown_coalesced > 0)

let suite =
  [
    Alcotest.test_case "smp_scale exercises stealing, oracle clean" `Slow
      test_smp_scale_steals;
    Alcotest.test_case "migration mid-batch stays coherent" `Quick
      test_migration_mid_batch;
    Alcotest.test_case "residency reset on ASID shootdown" `Quick
      test_residency_reset;
    Alcotest.test_case "deferred frame reused by another ASID" `Quick
      test_deferred_reuse_cross_asid;
    Alcotest.test_case "occupancy probe backstops filtering" `Quick
      test_parked_peer_occupancy;
    Alcotest.test_case "batched COW downgrades coalesce" `Quick
      test_batch_coalescing;
  ]
