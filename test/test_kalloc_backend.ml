open Nkhw
open Outer_kernel

(* Kalloc, Syscall_table and the Mmu_backend record. *)

let setup_kalloc () =
  let m = Machine.create ~frames:64 () in
  let falloc = Frame_alloc.create ~first:1 ~count:32 in
  (m, falloc, Kalloc.create m falloc ~chunk_size:64)

let test_kalloc_basic () =
  let _, _, ka = setup_kalloc () in
  let a = Option.get (Kalloc.alloc ka) in
  let b = Option.get (Kalloc.alloc ka) in
  Alcotest.(check bool) "distinct chunks" true (a <> b);
  Alcotest.(check bool) "aligned" true (a mod 64 = 0);
  Alcotest.(check int) "live" 2 (Kalloc.live_chunks ka);
  Kalloc.free ka a;
  Alcotest.(check int) "live after free" 1 (Kalloc.live_chunks ka)

let test_kalloc_zeroed () =
  let m, _, ka = setup_kalloc () in
  let a = Option.get (Kalloc.alloc ka) in
  Alcotest.(check int) "fresh chunks are zero" 0
    (Phys_mem.read_u64 m.Machine.mem (a - Addr.kernbase))

let test_kalloc_reuse () =
  let _, _, ka = setup_kalloc () in
  let a = Option.get (Kalloc.alloc ka) in
  Kalloc.free ka a;
  let b = Option.get (Kalloc.alloc ka) in
  Alcotest.(check int) "chunk recycled" a b

let test_kalloc_grows () =
  let _, falloc, ka = setup_kalloc () in
  let before = Frame_alloc.free_count falloc in
  (* One page holds 64 chunks; allocating 65 takes a second frame. *)
  let chunks = List.init 65 (fun _ -> Option.get (Kalloc.alloc ka)) in
  Alcotest.(check int) "two frames consumed" (before - 2)
    (Frame_alloc.free_count falloc);
  Alcotest.(check int) "all distinct" 65
    (List.length (List.sort_uniq compare chunks))

let test_kalloc_bad_chunk_size () =
  let m = Machine.create ~frames:8 () in
  let falloc = Frame_alloc.create ~first:1 ~count:4 in
  Alcotest.check_raises "chunk size must divide page"
    (Invalid_argument "Kalloc.create: chunk size must divide the page size")
    (fun () -> ignore (Kalloc.create m falloc ~chunk_size:100))

let test_native_backend_semantics () =
  let k = Helpers.kernel Config.Native in
  let b = k.Kernel.backend in
  Alcotest.(check string) "name" "native" b.Mmu_backend.name;
  Alcotest.(check bool) "unbatched" false b.Mmu_backend.batched;
  let f = Frame_alloc.alloc_exn k.Kernel.falloc in
  Helpers.check_ok "declare" (b.Mmu_backend.declare_ptp ~level:1 f);
  Helpers.check_ok "write anything, no validation"
    (b.Mmu_backend.write_pte ~ptp:f ~index:0
       (Pte.make ~frame:1 Pte.kernel_rw))

(* (full, page) TLB flushes counted since [w] opened. *)
let flushes w =
  (Window.count w Nktrace.Tlb_flush_full, Window.count w Nktrace.Tlb_flush_page)

let test_native_backend_tlb_maintenance () =
  let k = Helpers.kernel Config.Native in
  let m = k.Kernel.machine in
  let b = k.Kernel.backend in
  let f = Frame_alloc.alloc_exn k.Kernel.falloc in
  Helpers.check_ok "declare" (b.Mmu_backend.declare_ptp ~level:1 f);
  let va = 0x4000_0000 in
  Helpers.check_ok "map"
    (b.Mmu_backend.write_pte ~ptp:f ~index:0
       (Pte.make ~frame:(f + 1) Pte.user_rw_nx));
  Tlb.insert m.Machine.tlb ~asid:0 ~vpage:(Addr.vpage va)
    { Tlb.frame = f + 1; writable = true; user = true; nx = true; global = false };
  let w = Window.start m in
  Helpers.check_ok "unmap (downgrade)"
    (b.Mmu_backend.write_pte ~ptp:f ~index:0 Pte.empty);
  Alcotest.(check bool) "stale entry flushed" true
    (Tlb.lookup m.Machine.tlb ~asid:0 ~vpage:(Addr.vpage va) = None);
  Alcotest.(check (pair int int)) "unlinked table: full flush, no page flush"
    (1, 0) (flushes w)

let mmap_populated k p ~pages =
  match Syscalls.mmap k p ~len:(pages * Addr.page_size) ~rw:true ~populate:true () with
  | Ok va -> va
  | Error e -> Alcotest.failf "mmap: %s" (Ktypes.errno_to_string e)

(* The level-[level] table on [va]'s path down from [root]. *)
let table_on_path (m : Machine.t) root va ~level =
  let rec go ptp l =
    if l = level then ptp
    else
      let index = Addr.index_at_level ~level:l va in
      go (Pte.frame (Page_table.get_entry m.Machine.mem ~ptp ~index)) (l - 1)
  in
  go root 4

let cached (tlb : Tlb.t) va = Tlb.holds_span tlb ~vpage:(Addr.vpage va) ~count:1

(* CPU 1 runs the process and caches a page of a populated mmap; CPU 0
   unmaps it.  The native backend climbs the links its own writes
   recorded to the page's VA and flushes just that page, peer
   included. *)
let test_native_munmap_flushes_peer_page () =
  let k = Os.boot ~frames:4096 ~cpus:2 Config.Native in
  let p = Kernel.current_proc k in
  let va = mmap_populated k p ~pages:1 in
  Smp.with_cpu k.Kernel.smp 1 (fun () ->
      Helpers.check_ok_errno "run on CPU 1" (Kernel.switch_to k p.Proc.pid);
      Helpers.check_ok_errno "touch on CPU 1" (Kernel.touch_user k p va Fault.Read));
  let peer = (Smp.ctx k.Kernel.smp 1).Smp.tlb in
  Alcotest.(check bool) "CPU 1 caches the page" true (cached peer va);
  let w = Window.start k.Kernel.machine in
  Helpers.check_ok_errno "munmap on CPU 0" (Syscalls.munmap k p va);
  Alcotest.(check bool) "peer entry gone" false (cached peer va);
  Alcotest.(check (pair int int)) "one page flush, no full flush" (0, 1)
    (flushes w)

(* Two populated pages in one leaf table of the native init process:
   the machine, the backend, the first page's VA, the table and its
   PD. *)
let native_leaf_table () =
  let k = Helpers.kernel Config.Native in
  let m = k.Kernel.machine in
  let p = Kernel.current_proc k in
  let va = mmap_populated k p ~pages:2 in
  let root = p.Proc.vm.Vmspace.root in
  let pt = table_on_path m root va ~level:1 in
  Alcotest.(check int) "both pages in one table" pt
    (table_on_path m root (va + Addr.page_size) ~level:1);
  (m, k.Kernel.backend, va, pt, table_on_path m root va ~level:2)

(* Downgrade entry [index] of [pt] and count (full, page) flushes. *)
let downgrade (m : Machine.t) b ~pt ~index =
  let w = Window.start m in
  Helpers.check_ok "downgrade" (b.Mmu_backend.write_pte ~ptp:pt ~index Pte.empty);
  flushes w

(* A leaf table is found where the link that placed it says: unlinked
   from its PD it falls back to a full flush, and relinked at another
   PD slot it flushes the page at its new VA. *)
let test_native_relinked_leaf_table () =
  let m, b, va, pt, pd = native_leaf_table () in
  let slot = Addr.index_at_level ~level:2 va and index = Addr.pt_index va in
  let link = Page_table.get_entry m.Machine.mem ~ptp:pd ~index:slot in
  Helpers.check_ok "unlink" (b.Mmu_backend.write_pte ~ptp:pd ~index:slot Pte.empty);
  Alcotest.(check (pair int int)) "unlinked: full flush" (1, 0)
    (downgrade m b ~pt ~index);
  let slot' = slot + 1 in
  Alcotest.(check bool) "PD slot free" false
    (Pte.is_present (Page_table.get_entry m.Machine.mem ~ptp:pd ~index:slot'));
  Helpers.check_ok "relink" (b.Mmu_backend.write_pte ~ptp:pd ~index:slot' link);
  let va' =
    va + Addr.page_size + ((slot' - slot) * Addr.entries_per_table * Addr.page_size)
  in
  Helpers.check_ok "touch at the new VA" (Machine.read_u8 m ~ring:Mmu.User va');
  Alcotest.(check bool) "new VA cached" true (cached m.Machine.tlb va');
  Alcotest.(check (pair int int)) "relinked: page flush" (0, 1)
    (downgrade m b ~pt ~index:(index + 1));
  Alcotest.(check bool) "new VA flushed" false (cached m.Machine.tlb va')

(* A leaf table retired with remove_ptp is no longer located, even
   while its PD entry still links it: the downgrade flushes
   everything. *)
let test_native_retired_leaf_table () =
  let m, b, va, pt, _ = native_leaf_table () in
  Helpers.check_ok "retire" (b.Mmu_backend.remove_ptp pt);
  Helpers.check_ok "still mapped" (Machine.read_u8 m ~ring:Mmu.User va);
  Alcotest.(check (pair int int)) "retired: full flush" (1, 0)
    (downgrade m b ~pt ~index:(Addr.pt_index va));
  Alcotest.(check bool) "entry flushed" false (cached m.Machine.tlb va)

let test_nested_backend_validates () =
  let k = Helpers.kernel Config.Perspicuos in
  let b = k.Kernel.backend in
  let f = Frame_alloc.alloc_exn k.Kernel.falloc in
  (match b.Mmu_backend.write_pte ~ptp:f ~index:0 Pte.empty with
  | Error e ->
      Alcotest.(check bool) "names the rejection" true
        (String.length (Nested_kernel.Nk_error.to_string e) > 0)
  | Ok () -> Alcotest.fail "write to undeclared PTP accepted");
  Helpers.check_ok "declare" (b.Mmu_backend.declare_ptp ~level:1 f);
  Helpers.check_ok "now accepted" (b.Mmu_backend.write_pte ~ptp:f ~index:0 Pte.empty)

(* A declared level-1 PTP and the user leaf a stage test writes into
   its slot 0. *)
let stage_fixture k =
  let b = k.Kernel.backend in
  let f = Frame_alloc.alloc_exn k.Kernel.falloc in
  Helpers.check_ok "declare" (b.Mmu_backend.declare_ptp ~level:1 f);
  let leaf = Pte.make ~frame:(Frame_alloc.alloc_exn k.Kernel.falloc) Pte.user_rw_nx in
  let landed () =
    Page_table.get_entry k.Kernel.machine.Machine.mem ~ptp:f ~index:0 = leaf
  in
  (b, f, leaf, landed)

let test_stage_native_writes_at_once () =
  let b, f, leaf, landed = stage_fixture (Helpers.kernel Config.Native) in
  let s = Mmu_backend.stage b in
  Helpers.check_ok "push" (Mmu_backend.push s ~ptp:f ~index:0 leaf);
  Alcotest.(check bool) "visible at once" true (landed ());
  Alcotest.(check int) "nothing unwritten" 0
    (List.length (Mmu_backend.unwritten s));
  Helpers.check_ok "commit" (Mmu_backend.commit s)

let test_stage_batched_writes_on_commit () =
  let b, f, leaf, landed =
    stage_fixture (Os.boot ~frames:4096 ~batched:true Config.Perspicuos)
  in
  let s = Mmu_backend.stage b in
  Helpers.check_ok "push" (Mmu_backend.push s ~ptp:f ~index:0 leaf);
  Alcotest.(check bool) "invisible before commit" false (landed ());
  Alcotest.(check bool) "the queue is unwritten" true
    (Mmu_backend.unwritten s = [ (f, 0, leaf) ]);
  Helpers.check_ok_nk "commit" (Mmu_backend.commit s);
  Alcotest.(check bool) "visible after commit" true (landed ());
  Alcotest.(check int) "nothing unwritten after commit" 0
    (List.length (Mmu_backend.unwritten s))

let test_stage_empty_commit_crosses_once () =
  let k = Os.boot ~frames:4096 ~batched:true Config.Perspicuos in
  let w = Window.start k.Kernel.machine in
  Helpers.check_ok_nk "empty commit"
    (Mmu_backend.commit (Mmu_backend.stage k.Kernel.backend));
  Alcotest.(check int) "one batch counted" 1
    (Window.count w Nktrace.Pte_write_batch)

let test_split_batch_prefix_contract () =
  let k = Helpers.kernel Config.Perspicuos in
  let b, f, leaf, landed = stage_fixture k in
  let undeclared = Frame_alloc.alloc_exn k.Kernel.falloc in
  let entry index =
    Page_table.get_entry k.Kernel.machine.Machine.mem ~ptp:f ~index
  in
  let leaf1 = Pte.make ~frame:(Pte.frame leaf) Pte.user_ro_nx in
  (match
     b.Mmu_backend.write_pte_batch
       [ (f, 0, leaf); (f, 1, leaf1); (undeclared, 0, leaf); (f, 3, leaf) ]
   with
  | Error (Nested_kernel.Nk_error.Batch_item { index = 2; _ }) -> ()
  | Error e ->
      Alcotest.failf "wrong rejection: %s" (Nested_kernel.Nk_error.to_string e)
  | Ok () -> Alcotest.fail "batch through an undeclared PTP accepted");
  Alcotest.(check bool) "tuple 0 applied" true (landed ());
  Alcotest.(check bool) "tuple 1 applied" true (entry 1 = leaf1);
  Alcotest.(check bool) "tuple 3 not applied" false (Pte.is_present (entry 3))

let test_syscall_table_native_rw () =
  let k = Helpers.kernel Config.Native in
  let t = k.Kernel.syscall_table in
  Alcotest.(check bool) "not write-once" false (Syscall_table.is_write_once t);
  Helpers.check_ok "set" (Syscall_table.set t ~sysno:40 ~handler_id:7);
  Alcotest.(check (result int Helpers.errno)) "get" (Ok 7)
    (Syscall_table.get t ~sysno:40);
  Helpers.check_ok "overwrite allowed natively"
    (Syscall_table.set t ~sysno:40 ~handler_id:8)

let test_syscall_table_bounds () =
  let k = Helpers.kernel Config.Native in
  let t = k.Kernel.syscall_table in
  (match Syscall_table.set t ~sysno:(-1) ~handler_id:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative sysno");
  (match Syscall_table.get t ~sysno:64 with
  | Error Ktypes.Enosys -> ()
  | _ -> Alcotest.fail "out-of-range get");
  match Syscall_table.get t ~sysno:39 with
  | Error Ktypes.Enosys -> () (* empty entry *)
  | _ -> Alcotest.fail "empty entry should be ENOSYS"

let suite =
  [
    Alcotest.test_case "kalloc basics" `Quick test_kalloc_basic;
    Alcotest.test_case "kalloc zeroes" `Quick test_kalloc_zeroed;
    Alcotest.test_case "kalloc reuse" `Quick test_kalloc_reuse;
    Alcotest.test_case "kalloc grows by frames" `Quick test_kalloc_grows;
    Alcotest.test_case "kalloc chunk size" `Quick test_kalloc_bad_chunk_size;
    Alcotest.test_case "native backend semantics" `Quick
      test_native_backend_semantics;
    Alcotest.test_case "native backend TLB maintenance" `Quick
      test_native_backend_tlb_maintenance;
    Alcotest.test_case "native munmap flushes the peer's page" `Quick
      test_native_munmap_flushes_peer_page;
    Alcotest.test_case "native locates a relinked leaf table" `Quick
      test_native_relinked_leaf_table;
    Alcotest.test_case "native forgets a retired leaf table" `Quick
      test_native_retired_leaf_table;
    Alcotest.test_case "nested backend validates" `Quick
      test_nested_backend_validates;
    Alcotest.test_case "stage writes at once on native" `Quick
      test_stage_native_writes_at_once;
    Alcotest.test_case "stage writes on commit when batched" `Quick
      test_stage_batched_writes_on_commit;
    Alcotest.test_case "empty batched commit crosses once" `Quick
      test_stage_empty_commit_crosses_once;
    Alcotest.test_case "split batch keeps the prefix contract" `Quick
      test_split_batch_prefix_contract;
    Alcotest.test_case "syscall table native" `Quick test_syscall_table_native_rw;
    Alcotest.test_case "syscall table bounds" `Quick test_syscall_table_bounds;
  ]
