(* Targeted TLB shootdowns: per-ASID residency filtering, batch
   coalescing and lazy unmap invalidation — the edges where a skipped
   or late flush would turn into a stale translation. *)
open Nkhw
open Outer_kernel

let page = Addr.page_size

let boot ?(cpus = 1) ?(coherence = false) () =
  let k = Os.boot ~frames:4096 ~cpus Config.Perspicuos in
  if coherence then
    Nested_kernel.Api.Diagnostics.Coherence.enable (Option.get k.Kernel.nk);
  k

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
      let p = Nk_workloads.Smp_scale.run_one cpus in
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

(* The residency table starts small and grows when a larger ASID is
   noted.  An ASID never noted reads 0, before the growth or after,
   and shooting it down is harmless; a mask noted before the growth
   survives it; a CPU-wide clear reaches the grown slots. *)
let test_residency_table_grows () =
  let m = Machine.create ~frames:64 () in
  let cr = m.Machine.cr in
  cr.Cr.cr0 <- Cr.cr0_pe lor Cr.cr0_pg;
  cr.Cr.cr4 <- Cr.cr4_pcide;
  let run_on ~cpu ~asid =
    m.Machine.cur_cpu <- cpu;
    cr.Cr.cr3 <- Cr.cr3_value ~frame:0 ~pcid:asid;
    Machine.note_asid_active m
  in
  let top = Cr.max_pcid in
  Alcotest.(check int) "never-noted ASID reads 0" 0 (Machine.residency m ~asid:top);
  Machine.shootdown_asid m ~asid:top;
  Alcotest.(check int) "still 0 after its shootdown" 0 (Machine.residency m ~asid:top);
  run_on ~cpu:0 ~asid:1;
  run_on ~cpu:1 ~asid:top;
  Alcotest.(check int) "ASID 4095 noted on CPU 1" 0b10 (Machine.residency m ~asid:top);
  Alcotest.(check int) "earlier mask survives the growth" 0b01
    (Machine.residency m ~asid:1);
  Alcotest.(check int) "grown, never-noted ASID reads 0" 0
    (Machine.residency m ~asid:(top - 1));
  Machine.shootdown_asid m ~asid:(top - 1);
  Machine.flush_full m;
  Alcotest.(check int) "CPU 1's flush clears the grown slot" 0
    (Machine.residency m ~asid:top);
  Alcotest.(check int) "and leaves CPU 0's mask" 0b01 (Machine.residency m ~asid:1)

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

(* Api-level universe for the deferred queue's contract: pdpt, pd and
   pt declared and linked down from the boot root's slot 0, so pt[i]
   translates user page i and an unmap through it is deferrable. *)
let va0_universe () =
  let m, nk = Helpers.booted_nk () in
  let o = Nested_kernel.Api.outer_first_frame nk in
  let link =
    { Pte.no_flags with Pte.present = true; writable = true; user = true }
  in
  List.iter2
    (fun level f ->
      Helpers.check_ok_nk "declare" (Nested_kernel.Api.declare_ptp nk ~level f))
    [ 3; 2; 1 ] [ o; o + 1; o + 2 ];
  List.iter2
    (fun ptp child ->
      Helpers.check_ok_nk "link"
        (Nested_kernel.Api.write_pte nk ~ptp ~index:0 (Pte.make ~frame:child link)))
    [ nk.Nested_kernel.State.root_pml4; o; o + 1 ]
    [ o; o + 1; o + 2 ];
  let set index pte =
    Helpers.check_ok_nk "write_pte"
      (Nested_kernel.Api.write_pte nk ~ptp:(o + 2) ~index pte)
  in
  let map index frame = set index (Pte.make ~frame Pte.user_rw_nx) in
  let unmap index = set index Pte.empty in
  (m, nk, map, unmap, o + 3)

(* Does any CPU's TLB still translate [vpage] to [frame]? *)
let cached_to (m : Machine.t) ~vpage frame =
  let hit = ref false in
  Array.iter
    (Tlb.iter_live ~f:(fun ~asid:_ ~vpage:v (e : Tlb.entry) ->
         if v = vpage && e.Tlb.frame = frame then hit := true))
    (Array.append [| m.Machine.tlb |] m.Machine.peer_tlbs);
  !hit

(* The slot barrier: a fresh leaf through a slot whose unmap is still
   queued must fire that record first, even though the new leaf names
   another frame — or the old frame's translation stays cached (and
   exempt) under the new mapping. *)
let test_deferred_slot_barrier () =
  let m, nk, map, unmap, d0 = va0_universe () in
  let d1 = d0 + 1 in
  map 0 d0;
  Helpers.check_ok "touch fills the TLB"
    (Machine.write_u8 m ~ring:Mmu.User 0 7);
  unmap 0;
  Alcotest.(check int) "unmap deferred" 1
    (Nested_kernel.Api.nk_deferred_live nk);
  Alcotest.(check bool) "d0 still cached while deferred" true
    (cached_to m ~vpage:0 d0);
  let w = Window.start m in
  map 0 d1;
  Alcotest.(check int) "d0's record fired" 1
    (Window.count w Nktrace.Flush_on_reuse);
  Alcotest.(check int) "queue empty" 0 (Nested_kernel.Api.nk_deferred_live nk);
  Alcotest.(check bool) "no TLB maps the page to d0" false
    (cached_to m ~vpage:0 d0)

(* The cap: 129 eligible unmaps never leave more than 128 records; the
   129th drains the first 128 and then queues itself. *)
let test_deferred_cap () =
  let m, nk, map, unmap, d0 = va0_universe () in
  for i = 0 to 128 do
    map i (d0 + i)
  done;
  let w = Window.start m in
  let peak = ref 0 in
  for i = 0 to 127 do
    unmap i;
    peak := max !peak (Nested_kernel.Api.nk_deferred_live nk)
  done;
  Alcotest.(check int) "128 records queued" 128 !peak;
  Alcotest.(check int) "none fired below the cap" 0
    (Window.count w Nktrace.Flush_on_reuse);
  unmap 128;
  Alcotest.(check int) "every unmap deferred" 129
    (Window.count w Nktrace.Flush_deferred);
  Alcotest.(check int) "the 129th drains the first 128" 128
    (Window.count w Nktrace.Flush_on_reuse);
  Alcotest.(check int) "and queues itself" 1
    (Nested_kernel.Api.nk_deferred_live nk)

(* The oracle's exemption is as narrow as each record: its own frame,
   at a vpage inside its own spans. *)
let test_deferred_exemption_width () =
  let _, nk, map, unmap, d0 = va0_universe () in
  let d1 = d0 + 1 in
  map 0 d0;
  map 1 d1;
  unmap 0;
  unmap 1;
  let exempt ~vpage frame =
    Nested_kernel.State.is_deferred nk ~vpage
      { Tlb.frame; writable = true; user = true; nx = true; global = false }
  in
  Alcotest.(check bool) "record's frame inside its span" true
    (exempt ~vpage:0 d0);
  Alcotest.(check bool) "second record likewise" true (exempt ~vpage:1 d1);
  Alcotest.(check bool) "another frame at the same vpage" false
    (exempt ~vpage:0 d1);
  Alcotest.(check bool) "same frame outside its spans" false
    (exempt ~vpage:1 d0);
  Alcotest.(check bool) "same frame past every span" false
    (exempt ~vpage:2 d0)

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
    Alcotest.test_case "residency table grows to the noted ASID" `Quick
      test_residency_table_grows;
    Alcotest.test_case "residency reset on ASID shootdown" `Quick
      test_residency_reset;
    Alcotest.test_case "deferred frame reused by another ASID" `Quick
      test_deferred_reuse_cross_asid;
    Alcotest.test_case "deferred slot barrier fires on reinstall" `Quick
      test_deferred_slot_barrier;
    Alcotest.test_case "deferred queue capped at 128" `Quick test_deferred_cap;
    Alcotest.test_case "deferred exemption is per record" `Quick
      test_deferred_exemption_width;
    Alcotest.test_case "occupancy probe backstops filtering" `Quick
      test_parked_peer_occupancy;
    Alcotest.test_case "batched COW downgrades coalesce" `Quick
      test_batch_coalescing;
  ]
